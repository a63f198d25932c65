// Command perfbench is the repository benchmark. One invocation builds a
// deployment from the program's public constructors, drives one named
// workload derived from --seed for about --seconds, checks that the
// outputs are correct, and prints its metrics. The last line of
// standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run installs timing wrappers and reports the per-layer metrics
// instead. A failed correctness check exits nonzero and prints no
// metrics. DESIGN.md in this directory describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"algorand/internal/metrics"
	nodepkg "algorand/internal/node"
	"algorand/internal/trace"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	metrics           map[string]metric
	report            []string
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds a human-readable report line printed before the JSON.
func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tmp     string
	out     string
	window  int
}

var workloads = map[string]func(options) (*result, error){
	"tcp-payments":  func(o options) (*result, error) { return runTCP(o, tcpPayments) },
	"tcp-bigstate":  func(o options) (*result, error) { return runTCP(o, tcpBigstate) },
	"sim-committee": runSim,
}

func main() {
	var o options
	name := flag.String("workload", "", "workload to run: tcp-payments, tcp-bigstate or sim-committee")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 installs timing wrappers and reports per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "directory for the run's scratch data directories")
	flag.StringVar(&o.out, "out", ".", "directory the traced run writes its span dump to")
	flag.IntVar(&o.window, "window", 0, "override the TCP workloads' closed-loop window of outstanding payments (capacity guard)")
	flag.Parse()
	o.trace = *traceFlag == 1
	run, ok := workloads[*name]
	if !ok || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <tcp-payments|tcp-bigstate|sim-committee> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAILED: %v\n", *name, o.seed, err)
		os.Exit(1)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, max(res.attempted, 1), res.failed, res.metrics})
	fmt.Println(string(out))
}

// endToEnd records the end-to-end metrics every workload reports.
type endToEnd struct {
	setups      []float64     // seconds per deployment build
	cpu         time.Duration // process CPU over the measured window
	nodeRounds  int           // rounds committed in the window, summed over nodes
	finalRounds int
	roundGaps   []float64 // ms between consecutive commits on one node
	confirms    []float64 // ms from due to confirmed on the submitting node
	committed   int       // payments confirmed in the window
	peakHeapMB  float64   // highest HeapInuse sampled up to the window's end
}

func (e *endToEnd) report(r *result, prefix string) {
	if prefix == "" {
		r.set("setup_s", "s", median(e.setups))
		r.set("peak_heap_mb", "MB", e.peakHeapMB)
	}
	// The gated tails are p95s. A run commits a few hundred rounds at
	// most, so a round gap's p99 has fewer than ten samples beyond it,
	// and a single slow round sets it. The p99s are reported next to
	// them, ungated.
	r.set(prefix+"confirm_p50_ms", "ms", quantile(e.confirms, 0.5))
	r.set(prefix+"confirm_p95_ms", "ms", quantile(e.confirms, 0.95))
	r.set(prefix+"cpu_ms_per_tx", "ms", ratio(float64(e.cpu)/1e6, float64(e.committed)))
	r.set(prefix+"cpu_ms_per_round", "ms", ratio(float64(e.cpu)/1e6, float64(e.nodeRounds)))
	r.set(prefix+"round_p50_ms", "ms", quantile(e.roundGaps, 0.5))
	if prefix == "" {
		r.set("round_p95_ms", "ms", quantile(e.roundGaps, 0.95))
		r.set("final_frac", "ratio", ratio(float64(e.finalRounds), float64(e.nodeRounds)))
	}
	r.note("confirm_p99_ms %.1f ms (%d samples), round_p99_ms %.1f ms (%d samples)",
		quantile(e.confirms, 0.99), len(e.confirms), quantile(e.roundGaps, 0.99), len(e.roundGaps))
	r.note("samples: confirm %d, round gaps %d, node-rounds %d, committed payments %d",
		len(e.confirms), len(e.roundGaps), e.nodeRounds, e.committed)
}

// layerWindow is what the per-layer metrics are normalised by: the live
// part of the run (nodes started to nodes stopped) on the span clock.
type layerWindow struct {
	from, to   time.Duration
	cpu        time.Duration
	nodeRounds float64
	payments   float64
	rt0, rt1   runtimeSample
}

// commonLayers fills the per-layer metrics every workload shares:
// crypto, node handlers, txflow submission and assembly, agreement,
// block proposal and the Go runtime. It also reports each span name's
// self time.
func commonLayers(r *result, t *tracer, w layerWindow, regs []*metrics.Registry, tracers []*trace.Tracer) {
	spans := t.rec.between(w.from, w.to)
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range spans[name] {
			out = append(out, float64(s.dur())/1e3)
		}
		return out
	}
	busy := func(name string) float64 {
		var sum time.Duration
		for _, s := range spans[name] {
			sum += s.dur()
		}
		return float64(sum)
	}
	// A call's wall time includes waits for a core, so a layer's share of
	// the process CPU is estimated as calls times the median call.
	cpuShare := func(name string) float64 {
		return ratio(float64(len(spans[name]))*median(durs(name))*1e3, float64(w.cpu))
	}
	r.set("crypto.verify_sig.calls_per_tx", "count", ratio(float64(len(spans["crypto.verify_sig"])), w.payments))
	r.set("crypto.verify_sig.us_p50", "us", median(durs("crypto.verify_sig")))
	r.set("crypto.verify_sig.busy_frac", "ratio", cpuShare("crypto.verify_sig"))
	r.set("crypto.vrf_verify.calls_per_round", "count", ratio(float64(len(spans["crypto.vrf_verify"])), w.nodeRounds))
	r.set("crypto.vrf_verify.us_p50", "us", median(durs("crypto.vrf_verify")))
	r.set("crypto.vrf_verify.busy_frac", "ratio", cpuShare("crypto.vrf_verify"))
	r.set("crypto.vrf_prove.us_p50", "us", median(durs("crypto.vrf_prove")))
	for _, k := range handlerKinds {
		name := "node.handle." + k
		r.set(name+".us_p50", "us", median(durs(name)))
		r.set(name+".busy_ms_per_round", "ms", ratio(busy(name)/1e6, w.nodeRounds))
	}
	r.set("txflow.submit.us_p50", "us", quantile(durs("txflow.submit"), 0.5))
	r.set("txflow.submit.us_p99", "us", quantile(durs("txflow.submit"), 0.99))

	var assemble, baStep, propose []time.Duration
	for _, tr := range tracers {
		assemble = append(assemble, tr.Durations(trace.PhaseAssemble)...)
		baStep = append(baStep, tr.Durations(trace.PhaseBAStep)...)
		propose = append(propose, tr.Durations(trace.PhasePropose)...)
	}
	r.set("txflow.assemble.us_p50", "us", median(durationsUs(assemble)))
	var steps, timeouts float64
	for _, reg := range regs {
		snap := reg.Snapshot()
		steps += snap["algorand_ba_steps_total"].Value
		timeouts += snap["algorand_ba_step_timeouts_total"].Value
	}
	r.set("agreement.steps_per_round", "count", ratio(steps, w.nodeRounds))
	r.set("agreement.ba_step.ms_p50", "ms", median(durationsMs(baStep)))
	r.set("agreement.timeouts_per_round", "count", ratio(timeouts, w.nodeRounds))
	r.set("blockprop.propose.ms_p50", "ms", median(durationsMs(propose)))
	r.set("runtime.gc_cpu_frac", "ratio", ratio((w.rt1.gcCPU-w.rt0.gcCPU)*1e9, float64(w.cpu)))
	r.set("runtime.alloc_mb_per_round", "MB", ratio((w.rt1.allocBytes-w.rt0.allocBytes)/(1<<20), w.nodeRounds))

	self := t.rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.note("self time %-28s %10.1f ms", n, float64(self[n])/1e6)
	}
}

// pendingGauge reads each node's transaction pool size, for the sampler.
func pendingGauge(nodes []*nodepkg.Node) func() []float64 {
	return func() []float64 {
		out := make([]float64, len(nodes))
		for i, nd := range nodes {
			out[i] = float64(nd.TxFlow().Len())
		}
		return out
	}
}

// txflowLayers reports the admission pipeline's counters, summed over
// nodes, and the pool size sampled in the measured window. Duplicates
// are the expected fate of gossip copies and have their own ratio, so
// the rejects are the other reasons (stale nonce, bad signature, rate,
// pool full).
func txflowLayers(r *result, nodes []*nodepkg.Node, pending []float64) {
	var admitted, dups, rejected float64
	for _, nd := range nodes {
		st := nd.TxFlow().Stats()
		admitted += float64(st.Admitted)
		dups += float64(st.Duplicate)
		rejected += float64(st.Rejected() - st.Duplicate)
	}
	r.set("txflow.dup_per_admitted", "ratio", ratio(dups, admitted))
	r.set("txflow.rejects_per_attempt", "ratio", ratio(rejected, admitted+dups+rejected))
	r.set("txflow.pending_p99", "count", quantile(pending, 0.99))
}

// replayLayers reports the ledger layer from the chain replay.
func replayLayers(r *result, st replayStats) {
	r.set("ledger.validate.us_per_block", "us", median(durationsUs(st.validate)))
	r.set("ledger.commit.us_per_block", "us", median(durationsUs(st.commit)))
	r.set("ledger.root.us", "us", float64(st.root)/1e3)
	r.set("ledger.heap_mb_per_round", "MB", st.heapPerRound)
	r.set("ledger.block_fill_frac", "ratio", st.maxFill)
}
