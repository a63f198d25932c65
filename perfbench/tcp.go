package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/diskfault"
	"algorand/internal/ledger"
	"algorand/internal/ledger/diskstore"
	"algorand/internal/metrics"
	nodepkg "algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/realnet"
	"algorand/internal/trace"
	"algorand/internal/vtime"
)

// tcpWorkload describes a run of the 4-node loopback TCP deployment.
// Phase A offers payments open loop at rate for the first part of the
// measured time; with a window, phase B then keeps that many payments
// outstanding (closed loop) for the last phaseBShare of it and reports
// the committed throughput as capacity.
type tcpWorkload struct {
	name    string
	clients int     // funded client accounts that send payments
	idle    int     // funded accounts that never transact
	rate    float64 // phase A offered load, tx/s
	window  int     // phase B outstanding payments (0: no phase B)
}

var (
	// tcpPayments: the payment path under load. Phase A runs at a rate
	// at which the 2-core process is roughly 60% busy, below the knee
	// where a slower machine stretches rounds and so the CPU per round;
	// phase B's window
	// saturates the CPU while blocks stay well under the 1 MB cap
	// (doubling it moves capacity by less than a quarter; quadrupling it
	// fills blocks, and throughput then collapses).
	tcpPayments = tcpWorkload{name: "tcp-payments", clients: 2000, rate: 800, window: 3000}
	// tcpBigstate: the same cluster at a low rate over a genesis holding
	// twenty thousand idle accounts, so state size dominates. Every
	// commit clones the account table, so the heap grows with rounds ×
	// accounts; this size keeps a run's peak heap near 2 GB.
	tcpBigstate = tcpWorkload{name: "tcp-bigstate", clients: 2000, idle: 20000, rate: 100}
)

const (
	phaseBShare = 0.3
	// phaseBPoolTPS sizes the pre-signed phase B payments per second of
	// phase B, well above any capacity this deployment reaches.
	phaseBPoolTPS = 5000
)

const (
	tcpNodes   = 4
	setupReps  = 15
	drainLimit = 10 * time.Second
	watchEvery = 2 * time.Millisecond
	// warmup runs the cluster unloaded before measuring, so that lazy
	// peer dials and the first rounds are not timed.
	warmup = 2 * time.Second
	// lagLimit marks a run invalid when the open-loop generator's p99
	// lateness exceeds it: the offered load was then not the stated rate.
	lagLimit = 100 * time.Millisecond
)

// tcpParams are the realnet tests' protocol timings with the paper's
// committee sizes and 1 MB blocks. A vote carries all of a node's
// selected sub-users, so the paper's large committees cost no more
// messages than small ones, and they keep sortition from leaving a step
// short of its threshold by chance.
func tcpParams() params.Params {
	p := params.Default()
	p.TauProposer = 6
	p.LambdaPriority = 150 * time.Millisecond
	p.LambdaStepVar = 100 * time.Millisecond
	p.LambdaBlock = time.Second
	p.LambdaStep = 500 * time.Millisecond
	p.MaxSteps = 12
	p.BlockSize = 1 << 20
	return p
}

// tcpCluster is one in-process deployment: per node a wall-clock
// scheduler, a loopback TCP transport, a WAL archive and a node.
type tcpCluster struct {
	dir      string
	sims     []*vtime.Sim
	trs      []*realnet.Transport
	archives []*diskstore.Store
	nodes    []*nodepkg.Node
	regs     []*metrics.Registry
	tracers  []*trace.Tracer
	started  []time.Time // when each scheduler began running
	done     []chan struct{}
	genesis  map[crypto.PublicKey]uint64
	seed0    crypto.Digest
	closed   bool
}

type commitEvent struct {
	node  int
	block *ledger.Block
	at    time.Duration // on the generator's clock
}

func buildTCP(seed uint64, in *inputs, dir string, tr *tracer) (*tcpCluster, error) {
	real := crypto.NewReal()
	c := &tcpCluster{dir: dir, seed0: crypto.HashUint64("perfbench.genesis", seed)}
	providers := make([]crypto.Provider, tcpNodes)
	ids := make([]crypto.Identity, tcpNodes)
	for i := range providers {
		providers[i] = real
		if tr != nil {
			providers[i] = &tracedProvider{Provider: real, t: tr, node: i}
		}
		ids[i] = providers[i].NewIdentity(crypto.SeedFromUint64(seed<<32 | uint64(i)))
	}
	c.genesis = in.genesis(ids)
	var addrs []string
	var lns []net.Listener
	for i := 0; i < tcpNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i := 0; i < tcpNodes; i++ {
		reg := metrics.NewRegistry()
		sim := vtime.New().Realtime()
		rcfg := realnet.DefaultConfig()
		rcfg.DialTimeout = time.Second
		rcfg.RedialMin = 25 * time.Millisecond
		rcfg.RedialMax = 500 * time.Millisecond
		rcfg.Seed = int64(seed) + int64(i)
		rcfg.Metrics = reg
		t := realnet.NewWithConfig(sim, i, addrs, lns[i], rcfg)
		c.sims, c.trs, c.regs = append(c.sims, sim), append(c.trs, t), append(c.regs, reg)
		opts := diskstore.Options{Metrics: reg}
		if tr != nil {
			opts.FS = &tracedFS{FS: diskfault.OS(), t: tr}
		}
		ds, err := diskstore.Open(filepath.Join(dir, fmt.Sprintf("node-%d", i)), opts)
		if err != nil {
			c.close()
			for _, l := range lns[i+1:] {
				l.Close()
			}
			return nil, err
		}
		c.archives = append(c.archives, ds)
		epoch := time.Now()
		wall := func() time.Duration { return time.Since(epoch) }
		cfg := nodepkg.Config{
			Params:        tcpParams(),
			LedgerCfg:     ledger.DefaultConfig(),
			Archive:       ds,
			TxFlowWorkers: 2,
			Metrics:       reg,
			Tracer:        trace.New(wall, 0),
		}
		cfg.TxFlow.Now = wall
		c.tracers = append(c.tracers, cfg.Tracer)
		var transport nodepkg.Transport = t
		var th *tracedHandler
		if tr != nil {
			th = &tracedHandler{t: tr, node: i, capture: true}
			transport = &tracedTransport{Transport: t, h: th}
		}
		nd := nodepkg.New(i, sim, transport, providers[i], ids[i], cfg, c.genesis, c.seed0)
		if th != nil {
			th.round = func() uint64 { return nd.Ledger().NextRound() }
		}
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

// start launches every node and a watcher per node that reports each
// commit, with the time it saw it, on events.
func (c *tcpCluster) start(events chan<- commitEvent, epoch time.Time) {
	c.done = make([]chan struct{}, tcpNodes)
	c.started = make([]time.Time, tcpNodes)
	for i := range c.nodes {
		i, nd, sim := i, c.nodes[i], c.sims[i]
		c.trs[i].Start()
		nd.Start()
		sim.Spawn("perfbench-watch", func(p *vtime.Proc) {
			seen := 0
			for !sim.Stopped() {
				p.Sleep(watchEvery)
				for ; seen < len(nd.Stats); seen++ {
					if b, ok := nd.Ledger().BlockAt(nd.Stats[seen].Round); ok {
						events <- commitEvent{node: i, block: b, at: time.Since(epoch)}
					}
				}
			}
		})
		c.done[i] = make(chan struct{})
		c.started[i] = time.Now()
		go func() {
			defer close(c.done[i])
			sim.Run(0)
		}()
	}
}

// stop halts every node and waits for its scheduler to return.
func (c *tcpCluster) stop() {
	for i := range c.sims {
		nd, sim := c.nodes[i], c.sims[i]
		sim.Inject(func() {
			nd.Halt()
			sim.Stop()
		})
	}
	for _, d := range c.done {
		<-d
	}
}

// close releases transports, worker pools and archives, and deletes the
// data directories. Safe to call more than once.
func (c *tcpCluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, t := range c.trs {
		t.Close()
	}
	for _, nd := range c.nodes {
		nd.TxFlow().Close()
	}
	for _, ds := range c.archives {
		ds.Close()
	}
	os.RemoveAll(c.dir)
}

func (c *tcpCluster) ledgers() []*ledger.Ledger {
	out := make([]*ledger.Ledger, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Ledger()
	}
	return out
}

// generator is the single goroutine that submits payments in-process
// and follows their confirmations.
type generator struct {
	in          *inputs
	nodes       []*nodepkg.Node
	events      <-chan commitEvent
	epoch       time.Time
	tr          *tracer
	outstanding int
	lastReject  error
}

func (g *generator) now() time.Duration { return time.Since(g.epoch) }

func (g *generator) handle(ev commitEvent) {
	g.outstanding -= g.in.confirm(ev.node, ev.block, ev.at)
}

// wait handles commit events until the generator's clock reaches t.
func (g *generator) wait(t time.Duration) {
	for {
		d := t - g.now()
		if d <= 0 {
			return
		}
		select {
		case ev := <-g.events:
			g.handle(ev)
		case <-time.After(d):
		}
	}
}

func (g *generator) send(k int, due time.Duration) {
	p := g.in.payments[k]
	p.sent, p.due = true, due
	submit := func() error { return g.nodes[p.node].SubmitTx(&p.tx) }
	var err error
	if g.tr != nil {
		err = g.tr.submit(k, submit)
	} else {
		err = submit()
	}
	if err != nil {
		p.rejected, g.lastReject = true, err
		return
	}
	g.outstanding++
}

// openLoop sends payments [from, to) on a fixed schedule starting at
// start, regardless of confirmations, and returns how late (ms) each
// send was.
func (g *generator) openLoop(from, to int, rate float64, start time.Duration) []float64 {
	lags := make([]float64, 0, to-from)
	for k := from; k < to; k++ {
		due := start + time.Duration(float64(k-from)/rate*float64(time.Second))
		g.wait(due)
		lags = append(lags, float64(g.now()-due)/1e6)
		g.send(k, due)
	}
	return lags
}

// closedLoop keeps window payments outstanding until end, drawing from
// [from, to). It reports whether the pre-signed payments ran out.
func (g *generator) closedLoop(from, to, window int, end time.Duration) (exhausted bool) {
	k := from
	for g.now() < end {
		for g.outstanding < window && k < to {
			g.send(k, g.now())
			k++
		}
		if k >= to {
			return true
		}
		select {
		case ev := <-g.events:
			g.handle(ev)
		case <-time.After(end - g.now()):
		}
	}
	return false
}

// drain waits until every admitted payment is confirmed or the deadline.
func (g *generator) drain(deadline time.Duration) {
	for g.outstanding > 0 && g.now() < deadline {
		select {
		case ev := <-g.events:
			g.handle(ev)
		case <-time.After(deadline - g.now()):
		}
	}
}

func runTCP(o options, w tcpWorkload) (*result, error) {
	provider := crypto.NewReal()
	secsA, secsB, window := o.seconds, 0.0, w.window
	if o.window > 0 {
		window = o.window
	}
	if window > 0 {
		secsB = o.seconds * phaseBShare
		secsA -= secsB
	}
	nA := int(w.rate * secsA)
	nB := int(phaseBPoolTPS * secsB)
	in := makeInputs(provider, o.seed, w.clients, w.idle, nA+nB, tcpNodes)
	var tr *tracer
	if o.trace {
		tr = newTracer(tcpNodes, in.payments)
	}
	tmp, err := os.MkdirTemp(o.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var e endToEnd
	var c *tcpCluster
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // no collection left over from the previous build
		t0 := time.Now()
		c, err = buildTCP(o.seed, in, filepath.Join(tmp, fmt.Sprint(rep)), tr)
		if err != nil {
			return nil, err
		}
		e.setups = append(e.setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			c.close()
		}
	}
	defer c.close()

	smp := startSampler(50*time.Millisecond, pendingGauge(c.nodes))
	// One event per node per committed round; the buffer covers far more
	// rounds than a run commits, so watchers never wait on the generator.
	events := make(chan commitEvent, 1<<14)
	epoch := time.Now()
	g := &generator{in: in, nodes: c.nodes, events: events, epoch: epoch, tr: tr}
	var live0 time.Duration
	if tr != nil {
		live0 = tr.rec.now()
	}
	rt0, cpuLive0 := readRuntime(), processCPU()
	c.start(events, epoch)

	g.wait(warmup)
	startA := g.now()
	cpu0, markA := processCPU(), smp.mark()
	lags := g.openLoop(0, nA, w.rate, startA)
	endA := startA + time.Duration(secsA*float64(time.Second))
	g.wait(endA)
	e.cpu = processCPU() - cpu0
	e.peakHeapMB = smp.peakHeapMB()
	pendingA := smp.gaugesBetween(markA, smp.mark())
	// Phase A's payments drain before phase B starts, so that none of
	// them is timed under phase B's saturation.
	startB, endB := endA, endA
	exhausted := false
	if nB > 0 {
		g.drain(g.now() + drainLimit)
		startB = g.now()
		endB = startB + time.Duration(secsB*float64(time.Second))
		exhausted = g.closedLoop(nA, nA+nB, window, endB)
	}
	g.drain(g.now() + drainLimit)
	c.stop()
	cpuLive, rt1 := processCPU()-cpuLive0, readRuntime()
	var live1 time.Duration
	if tr != nil {
		live1 = tr.rec.now()
	}
	smp.finish()

	// Correctness gate.
	ledgers := c.ledgers()
	var genesisTotal uint64
	for _, v := range c.genesis {
		genesisTotal += v
	}
	if err := checkChains(ledgers, in, genesisTotal); err != nil {
		return nil, err
	}
	rst, err := replay(longest(ledgers), provider, ledger.DefaultConfig(), c.genesis, c.seed0, tcpParams().BlockSize)
	if err != nil {
		return nil, err
	}
	lagP99 := quantile(lags, 0.99)
	if time.Duration(lagP99*1e6) > lagLimit {
		return nil, fmt.Errorf("open-loop generator fell behind: p99 lateness %.1f ms > %v", lagP99, lagLimit)
	}
	if exhausted {
		return nil, errors.New("closed loop ran out of pre-signed payments: capacity would be set by the input")
	}

	res := &result{}
	var capacity int
	for k, p := range in.payments {
		if !p.sent {
			continue
		}
		res.attempted++
		if !p.confirmed {
			res.failed++
			continue
		}
		if k < nA {
			e.confirms = append(e.confirms, float64(p.confirmedAt-p.due)/1e6)
		}
		if p.confirmedAt <= endA {
			e.committed++
		}
		if p.confirmedAt > startB && p.confirmedAt <= endB {
			capacity++
		}
	}
	var liveRounds int
	for i, nd := range c.nodes {
		off := c.started[i].Sub(epoch)
		prev := time.Duration(-1)
		for _, st := range nd.Stats {
			liveRounds++
			at := off + st.End
			if at < startA || at > endA {
				continue
			}
			e.nodeRounds++
			if st.Final {
				e.finalRounds++
			}
			if prev >= 0 {
				e.roundGaps = append(e.roundGaps, float64(at-prev)/1e6)
			}
			prev = at
		}
	}
	res.note("workload %s seed %d: phase A %.1fs at %.0f tx/s open loop, phase B %.1fs closed loop window %d",
		w.name, o.seed, secsA, w.rate, secsB, window)
	res.note("phase A process CPU %.2f cores", e.cpu.Seconds()/secsA)
	res.note("generator lateness p50 %.3f ms p99 %.3f ms (limit %v)", quantile(lags, 0.5), lagP99, lagLimit)
	if secsB > 0 {
		res.note("capacity_tps %.1f tx/s (phase B), block fill max %.3f", float64(capacity)/secsB, rst.maxFill)
		if rst.maxFill > 0.99 {
			res.note("blocks reached the size cap: this capacity is set by the block size, not by the system")
		}
	}
	res.note("failed_frac %.5f (%d rejected or unconfirmed of %d attempted)",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if g.lastReject != nil {
		res.note("last submit rejection: %v", g.lastReject)
	}
	res.note("chain length %d, replayed %d rounds with %d transactions", longest(ledgers).ChainLength(), rst.rounds, rst.txns)

	if !o.trace {
		e.report(res, "")
		return res, nil
	}
	e.report(res, "traced.")
	lw := layerWindow{from: live0, to: live1, cpu: cpuLive, nodeRounds: float64(liveRounds), rt0: rt0, rt1: rt1}
	for _, p := range in.payments {
		if p.confirmed {
			lw.payments++
		}
	}
	commonLayers(res, tr, lw, c.regs, c.tracers)
	replayLayers(res, rst)
	if err := tcpLayers(res, c, tr, lw, pendingA); err != nil {
		return nil, err
	}
	if err := tr.rec.write(filepath.Join(o.out, "spans-"+w.name+".csv")); err != nil {
		return nil, err
	}
	return res, nil
}

// tcpLayers reports the layers only the TCP deployment exercises:
// txflow counters, the transport, the wire codec and the WAL.
func tcpLayers(r *result, c *tcpCluster, t *tracer, w layerWindow, pending []float64) error {
	txflowLayers(r, c.nodes, pending)

	var frames, bytes, drops float64
	for _, tr := range c.trs {
		for _, p := range tr.Stats().Peers {
			frames += float64(p.FramesOut)
			bytes += float64(p.BytesOut)
			drops += float64(p.QueueDrops)
		}
	}
	r.set("realnet.msgs_per_round", "count", ratio(frames, w.nodeRounds))
	r.set("realnet.bytes_per_tx", "B", ratio(bytes, w.payments))
	r.set("realnet.bytes_per_round", "B", ratio(bytes, w.nodeRounds))
	r.set("realnet.queue_drops", "count", drops)

	enc, dec, err := wireReplay(t.captured)
	if err != nil {
		return err
	}
	r.set("wire.encode.ns_per_byte", "ns", enc)
	r.set("wire.decode.ns_per_byte", "ns", dec)

	spans := t.rec.between(w.from, w.to)
	var writes, syncs []float64
	var written float64
	for _, s := range spans["diskstore.write"] {
		writes = append(writes, float64(s.dur())/1e3)
		written += float64(s.bytes)
	}
	for _, s := range spans["diskstore.fsync"] {
		syncs = append(syncs, float64(s.dur())/1e3)
	}
	r.set("diskstore.write.us_p50", "us", quantile(writes, 0.5))
	r.set("diskstore.fsync.us_p50", "us", quantile(syncs, 0.5))
	r.set("diskstore.fsync.us_p99", "us", quantile(syncs, 0.99))
	r.set("diskstore.bytes_per_round", "B", ratio(written, w.nodeRounds))

	var events float64
	for _, s := range c.sims {
		events += float64(s.EventCount)
	}
	r.set("vtime.events_per_round", "count", ratio(events, w.nodeRounds))
	r.set("vtime.ns_per_event", "ns", 0)
	r.set("network.msgs_per_round", "count", 0)
	r.set("network.bytes_per_round", "B", 0)
	return nil
}
