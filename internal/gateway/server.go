package gateway

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/txflow"
)

// Server is the deployment's one client-facing TCP/JSON endpoint:
// newline-delimited JSON, one reply per request, carrying transaction
// submissions (TxJSON, singly or as a batch) and query ops, hardened
// for hostile clients:
//
//   - at most MaxConns concurrent connections; the excess gets
//     {"ok":false,"error":"gateway: connection limit",
//     "retry_after_ms":N} and an immediate close;
//   - one request frame is one line of at most MaxFrameBytes;
//     oversized frames get a typed error and the connection closes;
//   - a connection idle for IdleTimeout is reaped (half-open sockets
//     cannot pin per-connection state);
//   - malformed JSON gets a typed error, never a panic, and costs
//     nothing but the reply.
//
// Requests:
//
//	{"from":...,"to":...,"amount":..,"fee":..,"nonce":..,"sig":...}   submit one
//	[{...},{...}]                                                     submit batch
//	{"op":"balance","account":"<64 hex>"}                             account state
//	{"op":"tx_status","id":"<64 hex>"}                                tx status
//	{"op":"block","round":N}                                          block summary
//	{"op":"head"}                                                     chain head
type Server struct {
	ln net.Listener
	gw *Gateway
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// queryJSON is the query envelope ("op" distinguishes it from a
// transaction submission, which has no such field).
type queryJSON struct {
	Op      string `json:"op"`
	Account string `json:"account,omitempty"`
	ID      string `json:"id,omitempty"`
	Round   uint64 `json:"round,omitempty"`
}

// queryReply is the query response. AsOfRound reports the read-model
// head the answer was computed against — the consistency-lag contract:
// an answer is exact as of that round and may trail the cluster.
type queryReply struct {
	Ok        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	AsOfRound uint64 `json:"as_of_round"`
	// balance
	Balance uint64 `json:"balance,omitempty"`
	Nonce   uint64 `json:"nonce,omitempty"`
	// tx_status
	Status string `json:"status,omitempty"`
	Round  uint64 `json:"round,omitempty"`
	// block / head
	Hash         string `json:"hash,omitempty"`
	Txs          int    `json:"txs,omitempty"`
	PayloadBytes int    `json:"payload_bytes,omitempty"`
}

// errorReply is the generic typed failure frame.
type errorReply struct {
	Ok           bool   `json:"ok"`
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// TxJSON is the submission wire format: fixed-size fields in hex,
// integers in decimal.
type TxJSON struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Amount uint64 `json:"amount"`
	Fee    uint64 `json:"fee,omitempty"`
	Nonce  uint64 `json:"nonce"`
	Sig    string `json:"sig"`
}

// Transaction converts the JSON form to the ledger type.
func (j *TxJSON) Transaction() (*ledger.Transaction, error) {
	tx := &ledger.Transaction{Amount: j.Amount, Fee: j.Fee, Nonce: j.Nonce}
	if err := hexInto(j.From, tx.From[:]); err != nil {
		return nil, fmt.Errorf("from: %w", err)
	}
	if err := hexInto(j.To, tx.To[:]); err != nil {
		return nil, fmt.Errorf("to: %w", err)
	}
	sig, err := hex.DecodeString(j.Sig)
	if err != nil || len(sig) == 0 || len(sig) > 128 {
		return nil, errors.New("sig: bad hex or length")
	}
	tx.Sig = sig
	return tx, nil
}

// FromTransaction renders a signed transaction for submission.
func FromTransaction(tx *ledger.Transaction) TxJSON {
	return TxJSON{
		From:   hex.EncodeToString(tx.From[:]),
		To:     hex.EncodeToString(tx.To[:]),
		Amount: tx.Amount,
		Fee:    tx.Fee,
		Nonce:  tx.Nonce,
		Sig:    hex.EncodeToString(tx.Sig),
	}
}

// Result is the per-transaction reply. RetryAfterMs, when non-zero, is
// the backoff hint for load-shedding rejects: the milliseconds the
// sender should wait before resubmitting.
type Result struct {
	Ok           bool   `json:"ok"`
	Error        string `json:"error,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// batchReply is the submission reply: one Result per transaction for
// a batch.
type batchReply struct {
	Ok           bool     `json:"ok"`
	Error        string   `json:"error,omitempty"`
	RetryAfterMs int64    `json:"retry_after_ms,omitempty"`
	Results      []Result `json:"results,omitempty"`
}

// ListenAndServe opens the gateway endpoint.
func ListenAndServe(addr string, gw *Gateway) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, gw: gw, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// ConnCount reports currently served connections (tests assert the
// bound holds).
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		if len(s.conns) >= s.gw.cfg.MaxConns {
			s.mu.Unlock()
			s.gw.c.connRejects.Inc()
			// Typed reject with a retry hint; the client backs off and
			// redials (or fails over to another gateway).
			c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			json.NewEncoder(c).Encode(errorReply{
				Error:        "gateway: connection limit",
				RetryAfterMs: s.gw.cfg.ConnRetryAfter.Milliseconds(),
			})
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.gw.c.sessions.Inc()
		s.wg.Add(1)
		go s.serve(c)
	}
}

func (s *Server) serve(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	enc := json.NewEncoder(c)
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 4096), s.gw.cfg.MaxFrameBytes)
	for {
		// Half-open reaping: no full frame within IdleTimeout kills the
		// connection.
		c.SetReadDeadline(time.Now().Add(s.gw.cfg.IdleTimeout))
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				s.gw.c.frameRejects.Inc()
				enc.Encode(errorReply{Error: "gateway: frame exceeds limit"})
			}
			return
		}
		line := sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		if err := enc.Encode(s.handle(line)); err != nil {
			return
		}
	}
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// handle dispatches one request frame.
func (s *Server) handle(raw []byte) any {
	raw = trimSpace(raw)
	if len(raw) > 0 && raw[0] == '[' {
		return s.handleBatch(raw)
	}
	// Distinguish a query from a submission by the "op" field.
	var probe struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		s.gw.c.frameRejects.Inc()
		return errorReply{Error: "bad request: " + err.Error()}
	}
	if probe.Op != "" {
		return s.handleQuery(raw)
	}
	return s.handleSubmit(raw)
}

func (s *Server) handleSubmit(raw []byte) any {
	var one TxJSON
	if err := json.Unmarshal(raw, &one); err != nil {
		s.gw.c.frameRejects.Inc()
		return errorReply{Error: "bad tx: " + err.Error()}
	}
	tx, err := one.Transaction()
	if err != nil {
		return errorReply{Error: err.Error()}
	}
	if err := s.gw.Submit(tx); err != nil {
		rep := batchReply{Error: err.Error()}
		if retry, ok := txflow.RetryAfterHint(err); ok {
			rep.RetryAfterMs = retry.Milliseconds()
		}
		return rep
	}
	return batchReply{Ok: true}
}

func (s *Server) handleBatch(raw []byte) any {
	var batch []TxJSON
	if err := json.Unmarshal(raw, &batch); err != nil {
		s.gw.c.frameRejects.Inc()
		return errorReply{Error: "bad batch: " + err.Error()}
	}
	txs := make([]*ledger.Transaction, len(batch))
	results := make([]Result, len(batch))
	for i := range batch {
		tx, err := batch[i].Transaction()
		if err != nil {
			results[i] = Result{Error: err.Error()}
			continue
		}
		txs[i] = tx
	}
	ok := true
	errs := s.gw.SubmitBatch(txs)
	for i, err := range errs {
		if txs[i] == nil {
			ok = false
			continue
		}
		if err != nil {
			ok = false
			results[i] = Result{Error: err.Error()}
			if retry, hok := txflow.RetryAfterHint(err); hok {
				results[i].RetryAfterMs = retry.Milliseconds()
			}
		} else {
			results[i] = Result{Ok: true}
		}
	}
	return batchReply{Ok: ok, Results: results}
}

func (s *Server) handleQuery(raw []byte) any {
	var q queryJSON
	if err := json.Unmarshal(raw, &q); err != nil {
		s.gw.c.frameRejects.Inc()
		return errorReply{Error: "bad query: " + err.Error()}
	}
	s.gw.c.queries.Inc()
	rm := s.gw.rm
	switch q.Op {
	case "balance":
		var pk crypto.PublicKey
		if err := hexInto(q.Account, pk[:]); err != nil {
			return errorReply{Error: "balance: bad account key"}
		}
		money, nonce, asOf := rm.Balance(pk)
		return queryReply{Ok: true, Balance: money, Nonce: nonce, AsOfRound: asOf}
	case "tx_status":
		var id crypto.Digest
		if err := hexInto(q.ID, id[:]); err != nil {
			return errorReply{Error: "tx_status: bad id"}
		}
		status, round, asOf := rm.TxStatus(id)
		return queryReply{Ok: true, Status: status, Round: round, AsOfRound: asOf}
	case "block":
		headRound, _ := rm.Head()
		b, ok := rm.BlockAt(q.Round)
		if !ok {
			return queryReply{Ok: false, Error: "block: not retained", AsOfRound: headRound}
		}
		h := b.Hash()
		return queryReply{
			Ok: true, Round: b.Round, Hash: hex.EncodeToString(h[:]),
			Txs: len(b.Txns), PayloadBytes: b.WireSize(), AsOfRound: headRound,
		}
	case "head":
		round, h := rm.Head()
		return queryReply{Ok: true, Round: round, Hash: hex.EncodeToString(h[:]), AsOfRound: round}
	}
	return errorReply{Error: "unknown op: " + q.Op}
}

func hexInto(s string, dst []byte) error {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(dst) {
		return errors.New("bad hex")
	}
	copy(dst, b)
	return nil
}
