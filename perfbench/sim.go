package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/params"
	simpkg "algorand/internal/sim"
	"algorand/internal/trace"
	"algorand/internal/vtime"
)

const (
	simUsers   = 20
	simClients = 200
	// simRate is the light payment load, in payments per virtual second.
	simRate = 10.0
	// simRoundsPerSecond maps --seconds to a fixed round count, so a
	// seed's virtual-time results do not depend on the machine.
	simRoundsPerSecond = 0.55
)

// simCluster is the committee deployment on the deterministic
// simulator: one virtual-time scheduler, the simulated gossip network
// with its bandwidth and latency model, and a node per user, all with
// real Ed25519 and ECVRF.
type simCluster struct {
	sim     *vtime.Sim
	net     *network.Network
	nodes   []*nodepkg.Node
	regs    []*metrics.Registry
	tracers []*trace.Tracer
	cfg     simpkg.Config
	genesis map[crypto.PublicKey]uint64
	seed0   crypto.Digest
}

func buildSim(seed uint64, rounds int, in *inputs, tr *tracer) *simCluster {
	// The simulator's scaled parameters with the paper's committee sizes,
	// so committee selection variance does not decide round latency.
	cfg := simpkg.DefaultConfig(simUsers, uint64(rounds))
	cfg.Params.TauStep = params.Default().TauStep
	cfg.Params.TauFinal = params.Default().TauFinal
	cfg.Params.BlockSize = 1 << 20
	real := crypto.NewReal()
	c := &simCluster{sim: vtime.New(), cfg: cfg, seed0: crypto.HashUint64("perfbench.sim.genesis", seed)}
	netCfg := cfg.Net
	netCfg.Seed = int64(seed)
	c.net = network.New(c.sim, netCfg, simUsers)
	providers := make([]crypto.Provider, simUsers)
	ids := make([]crypto.Identity, simUsers)
	weights := make([]uint64, simUsers)
	for i := range ids {
		providers[i] = real
		if tr != nil {
			providers[i] = &tracedProvider{Provider: real, t: tr, node: i}
		}
		ids[i] = providers[i].NewIdentity(crypto.SeedFromUint64(seed<<32 | uint64(i)))
		weights[i] = nodeStake
	}
	c.net.SetWeights(weights)
	c.genesis = in.genesis(ids)
	fetch := func(h crypto.Digest) (*ledger.Block, bool) {
		for _, nd := range c.nodes {
			if b, ok := nd.Ledger().BlockOfHash(h); ok {
				return b, true
			}
		}
		return nil, false
	}
	for i := range ids {
		reg := metrics.NewRegistry()
		ncfg := nodepkg.Config{
			Params:    cfg.Params,
			LedgerCfg: cfg.LedgerCfg,
			Fetch:     fetch,
			Metrics:   reg,
			Tracer:    trace.New(c.sim.Now, 0),
		}
		nd := nodepkg.New(i, c.sim, c.net, providers[i], ids[i], ncfg, c.genesis, c.seed0)
		nd.StopAfterRound = uint64(rounds)
		if tr != nil {
			c.net.SetHandler(i, &tracedHandler{inner: nd, t: tr, node: i,
				round: func() uint64 { return nd.Ledger().NextRound() }})
		}
		c.nodes, c.regs, c.tracers = append(c.nodes, nd), append(c.regs, reg), append(c.tracers, ncfg.Tracer)
	}
	return c
}

// load spawns the payment generator: payments at simRate per virtual
// second, stopping once the chain is within three rounds of the end so
// that every payment can still commit.
func (c *simCluster) load(in *inputs, tr *tracer, rounds int) {
	c.sim.Spawn("perfbench-load", func(p *vtime.Proc) {
		for k, pay := range in.payments {
			due := time.Duration(float64(k) / simRate * float64(time.Second))
			p.Sleep(due - p.Now())
			if c.nodes[0].Ledger().ChainLength()+3 >= uint64(rounds) {
				return
			}
			pay.sent, pay.due = true, due
			submit := func() error { return c.nodes[pay.node].SubmitTx(&pay.tx) }
			var err error
			if tr != nil {
				err = tr.submit(k, submit)
			} else {
				err = submit()
			}
			pay.rejected = err != nil
		}
	})
}

func runSim(o options) (*result, error) {
	provider := crypto.NewReal()
	rounds := max(5, int(o.seconds*simRoundsPerSecond))
	perRound := 20 * time.Second
	count := int(simRate * (perRound * time.Duration(rounds)).Seconds())
	in := makeInputs(provider, o.seed, simClients, 0, count, simUsers)
	var tr *tracer
	if o.trace {
		tr = newTracer(simUsers, in.payments)
	}
	var e endToEnd
	var c *simCluster
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // no collection left over from the previous build
		t0 := time.Now()
		c = buildSim(o.seed, rounds, in, tr)
		e.setups = append(e.setups, time.Since(t0).Seconds())
	}
	smp := startSampler(50*time.Millisecond, pendingGauge(c.nodes))
	var live0 time.Duration
	if tr != nil {
		live0 = tr.rec.now()
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	c.load(in, tr, rounds)
	rt0, cpu0, wall0 := readRuntime(), processCPU(), time.Now()
	horizon := time.Duration(rounds+2)*(c.cfg.Params.LambdaBlock+c.cfg.Params.LambdaStep*time.Duration(c.cfg.Params.MaxSteps+6)) + time.Hour
	c.sim.Run(horizon)
	wall := time.Since(wall0)
	e.cpu = processCPU() - cpu0
	rt1 := readRuntime()
	var live1 time.Duration
	if tr != nil {
		live1 = tr.rec.now()
	}
	smp.finish()
	e.peakHeapMB = smp.peakHeapMB()

	// Confirmations: each payment commits when the node it was
	// submitted to commits the block holding it, on the virtual clock.
	ledgers := make([]*ledger.Ledger, len(c.nodes))
	for i, nd := range c.nodes {
		ledgers[i] = nd.Ledger()
		prev := time.Duration(-1)
		for _, st := range nd.Stats {
			if b, ok := nd.Ledger().BlockAt(st.Round); ok {
				in.confirm(i, b, st.End)
			}
			e.nodeRounds++
			if st.Final {
				e.finalRounds++
			}
			if prev >= 0 {
				e.roundGaps = append(e.roundGaps, float64(st.End-prev)/1e6)
			}
			prev = st.End
		}
	}
	var genesisTotal uint64
	for _, v := range c.genesis {
		genesisTotal += v
	}
	if err := checkChains(ledgers, in, genesisTotal); err != nil {
		return nil, err
	}
	if l := longest(ledgers); l.ChainLength() < uint64(rounds) {
		return nil, fmt.Errorf("the committee committed %d of %d rounds", l.ChainLength(), rounds)
	}
	rst, err := replay(longest(ledgers), provider, c.cfg.LedgerCfg, c.genesis, c.seed0, c.cfg.Params.BlockSize)
	if err != nil {
		return nil, err
	}

	res := &result{}
	for _, p := range in.payments {
		if !p.sent {
			continue
		}
		res.attempted++
		if !p.confirmed {
			res.failed++
			continue
		}
		e.committed++
		e.confirms = append(e.confirms, float64(p.confirmedAt-p.due)/1e6)
	}
	res.note("workload sim-committee seed %d: %d users, %d rounds, %.0f payments per virtual second, %d scheduler events in %v",
		o.seed, simUsers, rounds, simRate, c.sim.EventCount, wall.Round(time.Millisecond))
	res.note("failed_frac %.5f (%d rejected or unconfirmed of %d attempted)",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if !o.trace {
		e.report(res, "")
		return res, nil
	}
	e.report(res, "traced.")
	lw := layerWindow{from: live0, to: live1, cpu: e.cpu, nodeRounds: float64(e.nodeRounds),
		payments: float64(e.committed), rt0: rt0, rt1: rt1}
	commonLayers(res, tr, lw, c.regs, c.tracers)
	replayLayers(res, rst)
	txflowLayers(res, c.nodes, smp.gaugesBetween(0, smp.mark()))
	// Layers this deployment does not have.
	for _, m := range [][2]string{{"realnet.msgs_per_round", "count"}, {"realnet.bytes_per_tx", "B"},
		{"realnet.bytes_per_round", "B"}, {"realnet.queue_drops", "count"}, {"wire.encode.ns_per_byte", "ns"},
		{"wire.decode.ns_per_byte", "ns"}, {"diskstore.write.us_p50", "us"}, {"diskstore.fsync.us_p50", "us"},
		{"diskstore.fsync.us_p99", "us"}, {"diskstore.bytes_per_round", "B"}} {
		res.set(m[0], m[1], 0)
	}
	var msgs, bytes float64
	for i := range c.nodes {
		st := c.net.NodeStats(i)
		msgs += float64(st.MsgsReceived)
		bytes += float64(st.BytesSent)
	}
	res.set("vtime.events_per_round", "count", ratio(float64(c.sim.EventCount), lw.nodeRounds))
	res.set("vtime.ns_per_event", "ns", ratio(float64(wall), float64(c.sim.EventCount)))
	res.set("network.msgs_per_round", "count", ratio(msgs, lw.nodeRounds))
	res.set("network.bytes_per_round", "B", ratio(bytes, lw.nodeRounds))
	if err := tr.rec.write(filepath.Join(o.out, "spans-sim-committee.csv")); err != nil {
		return nil, err
	}
	return res, nil
}
