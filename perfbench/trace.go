package main

// Span recording for the traced run. Every span comes from a wrapper
// around an interface the program already accepts from its caller — the
// crypto provider and identities handed to node.New, the transport's
// message handler, and the diskstore's filesystem — so the program
// itself is measured from outside and runs unchanged. Untraced runs
// install none of these wrappers.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/diskfault"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
)

// reqID names the request a span worked for: a payment (kind 't', a =
// payment index) or a node's round (kind 'r', a = node, b = round).
type reqID struct {
	kind byte
	a, b uint64
}

func (r reqID) String() string {
	switch r.kind {
	case 't':
		return fmt.Sprintf("tx:%d", r.a)
	case 'r':
		return fmt.Sprintf("n%d/r%d", r.a, r.b)
	}
	return "-"
}

type span struct {
	id, parent uint64
	name       string
	req        reqID
	start, end time.Duration
	bytes      int
}

func (s span) dur() time.Duration { return s.end - s.start }

// active is the span open on one goroutine-like context (a node's
// scheduler, or the load generator), so that calls it makes can name it
// as their parent.
type active struct {
	id  uint64
	req reqID
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) record(s span) {
	if s.id == 0 {
		s.id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// between returns the spans that started inside [from, to).
func (r *recorder) between(from, to time.Duration) map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range r.spans {
		if s.start >= from && s.start < to {
			out[s.name] = append(out[s.name], s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its children.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[uint64][]span)
	for _, s := range r.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		ch := kids[s.id]
		sort.Slice(ch, func(i, j int) bool { return ch[i].start < ch[j].start })
		var covered time.Duration
		cur := s.start
		for _, c := range ch {
			lo, hi := max(c.start, cur), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.name] += s.dur() - covered
	}
	return out
}

// write dumps every span as CSV: id,parent,name,request,start_ns,end_ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,request,start_ns,end_ns")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", s.id, s.parent, s.name, s.req, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer bundles the recorder with the lookups wrappers need to name
// requests and parents.
type tracer struct {
	rec *recorder
	// paymentBySig maps the first 8 signature bytes of every generated
	// payment to its index, so a signature check names its payment.
	paymentBySig map[uint64]int
	// gen is the load generator's open submit span.
	gen atomic.Pointer[active]
	// handlers[i] is node i's open message-handler span.
	handlers []atomic.Pointer[active]
	// captured holds delivered messages sampled for the wire replay.
	capMu    sync.Mutex
	captured []network.Message
	capBytes int
	capSeen  map[string]int
}

func newTracer(nodes int, payments []*payment) *tracer {
	t := &tracer{
		rec:          newRecorder(),
		paymentBySig: make(map[uint64]int, len(payments)),
		handlers:     make([]atomic.Pointer[active], nodes),
		capSeen:      make(map[string]int),
	}
	for i, p := range payments {
		t.paymentBySig[sigKey(p.tx.Sig)] = i
	}
	return t
}

func sigKey(sig []byte) uint64 {
	var k uint64
	for i := 0; i < 8 && i < len(sig); i++ {
		k = k<<8 | uint64(sig[i])
	}
	return k
}

// submit times one generator call into the node's ingestion pipeline.
func (t *tracer) submit(k int, fn func() error) error {
	a := &active{id: t.rec.newID(), req: reqID{kind: 't', a: uint64(k)}}
	t.gen.Store(a)
	start := t.rec.now()
	err := fn()
	t.rec.record(span{id: a.id, name: "txflow.submit", req: a.req, start: start, end: t.rec.now()})
	t.gen.Store(nil)
	return err
}

// --- crypto.Provider / crypto.Identity ---------------------------------------

type tracedProvider struct {
	crypto.Provider
	t    *tracer
	node int
}

func (p *tracedProvider) NewIdentity(seed crypto.Seed) crypto.Identity {
	return &tracedIdentity{Identity: p.Provider.NewIdentity(seed), p: p}
}

func (p *tracedProvider) VerifySig(pk crypto.PublicKey, msg, sig []byte) bool {
	start := p.t.rec.now()
	ok := p.Provider.VerifySig(pk, msg, sig)
	s := span{name: "crypto.verify_sig", start: start, end: p.t.rec.now()}
	if k, found := p.t.paymentBySig[sigKey(sig)]; found {
		// A payment's signature: its parent is the generator's submit
		// span when this is that submission, else a gossip worker or
		// block validation with no wrapper span open.
		s.req = reqID{kind: 't', a: uint64(k)}
		if g := p.t.gen.Load(); g != nil && g.req == s.req {
			s.parent = g.id
		}
	} else if h := p.t.handlers[p.node].Load(); h != nil {
		s.parent, s.req = h.id, h.req
	}
	p.t.rec.record(s)
	return ok
}

func (p *tracedProvider) VRFVerify(pk crypto.PublicKey, alpha, proof []byte) (crypto.VRFOutput, bool) {
	start := p.t.rec.now()
	out, ok := p.Provider.VRFVerify(pk, alpha, proof)
	s := span{name: "crypto.vrf_verify", start: start, end: p.t.rec.now()}
	if h := p.t.handlers[p.node].Load(); h != nil {
		s.parent, s.req = h.id, h.req
	}
	p.t.rec.record(s)
	return out, ok
}

type tracedIdentity struct {
	crypto.Identity
	p *tracedProvider
}

func (id *tracedIdentity) VRFProve(alpha []byte) (crypto.VRFOutput, []byte) {
	start := id.p.t.rec.now()
	out, proof := id.Identity.VRFProve(alpha)
	id.p.t.rec.record(span{name: "crypto.vrf_prove", start: start, end: id.p.t.rec.now()})
	return out, proof
}

// --- message handler ----------------------------------------------------------

// messageKind names the handler-metric family of a gossip message.
func messageKind(m network.Message) string {
	switch m.(type) {
	case *nodepkg.VoteMsg:
		return "vote"
	case *nodepkg.PriorityGossip:
		return "priority"
	case *nodepkg.BlockAnnounce:
		return "announce"
	case *nodepkg.BlockGossip:
		return "block"
	case *nodepkg.TxBatch:
		return "txbatch"
	}
	return "other"
}

// handlerKinds are the message kinds with per-kind handler metrics.
var handlerKinds = []string{"vote", "priority", "announce", "block", "txbatch"}

// tracedHandler times a node's HandleMessage per message kind. round
// reads the node's next round; it runs in the node's scheduler context,
// where reading the ledger is safe.
type tracedHandler struct {
	inner   network.Handler
	t       *tracer
	node    int
	round   func() uint64
	capture bool
}

func (h *tracedHandler) HandleMessage(from int, m network.Message) network.Verdict {
	kind := messageKind(m)
	a := &active{id: h.t.rec.newID(), req: reqID{kind: 'r', a: uint64(h.node), b: h.round()}}
	h.t.handlers[h.node].Store(a)
	start := h.t.rec.now()
	v := h.inner.HandleMessage(from, m)
	h.t.rec.record(span{id: a.id, name: "node.handle." + kind, req: a.req, start: start, end: h.t.rec.now()})
	h.t.handlers[h.node].Store(nil)
	if h.capture {
		h.t.sample(kind, m)
	}
	return v
}

// sample keeps every 8th delivered message of each kind, within a
// 64 MiB budget, for the post-run wire replay.
func (t *tracer) sample(kind string, m network.Message) {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	t.capSeen[kind]++
	if t.capSeen[kind]%8 != 1 || t.capBytes > 64<<20 {
		return
	}
	t.captured = append(t.captured, m)
	t.capBytes += m.WireSize()
}

// tracedTransport is a node.Transport whose SetHandler interposes the
// timing handler.
type tracedTransport struct {
	nodepkg.Transport
	h *tracedHandler
}

func (tt *tracedTransport) SetHandler(id int, h network.Handler) {
	tt.h.inner = h
	tt.Transport.SetHandler(id, tt.h)
}

// --- diskfault.FS ---------------------------------------------------------------

type tracedFS struct {
	diskfault.FS
	t *tracer
}

func (fs *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t}, nil
}

type tracedFile struct {
	diskfault.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.t.rec.now()
	n, err := f.File.Write(p)
	f.t.rec.record(span{name: "diskstore.write", start: start, end: f.t.rec.now(), bytes: n})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.t.rec.now()
	err := f.File.Sync()
	f.t.rec.record(span{name: "diskstore.fsync", start: start, end: f.t.rec.now()})
	return err
}
