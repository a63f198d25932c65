package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/wire"
)

// checkChains is the correctness gate over the nodes' final ledgers:
// every pair of nodes agrees block for block on their common prefix;
// every committed transaction is a payment the generator sent, byte for
// byte, committed once per chain; every payment the generator counted as
// confirmed is on its node's chain; and money is conserved net of
// burned fees.
func checkChains(ledgers []*ledger.Ledger, in *inputs, genesisTotal uint64) error {
	ref := longest(ledgers)
	for i, l := range ledgers {
		upTo := min(l.ChainLength(), ref.ChainLength())
		for r := uint64(1); r <= upTo; r++ {
			a, _ := ref.BlockAt(r)
			b, _ := l.BlockAt(r)
			if a.Hash() != b.Hash() {
				return fmt.Errorf("node %d disagrees with the longest chain at round %d", i, r)
			}
		}
	}
	for i, l := range ledgers {
		seen := make(map[int]bool)
		var fees uint64
		for r := uint64(1); r <= l.ChainLength(); r++ {
			b, _ := l.BlockAt(r)
			for j := range b.Txns {
				tx := &b.Txns[j]
				k, ok := in.byKey[payKey{tx.From, tx.Nonce}]
				if !ok || !in.payments[k].sent || !sameTx(tx, &in.payments[k].tx) {
					return fmt.Errorf("node %d round %d: committed transaction %d was never sent by the generator", i, r, j)
				}
				if seen[k] {
					return fmt.Errorf("node %d round %d: payment %d committed twice", i, r, k)
				}
				seen[k] = true
				fees += tx.Fee
			}
		}
		for k, p := range in.payments {
			if p.confirmed && p.node == i && !seen[k] {
				return fmt.Errorf("payment %d counted as confirmed but absent from node %d's chain", k, i)
			}
		}
		bal := l.Balances()
		var sum uint64
		for _, m := range bal.Money {
			sum += m
		}
		if bal.Total != genesisTotal-fees || sum != bal.Total {
			return fmt.Errorf("node %d: money not conserved: genesis %d - fees %d != total %d (accounts sum %d)",
				i, genesisTotal, fees, bal.Total, sum)
		}
	}
	return nil
}

func sameTx(a, b *ledger.Transaction) bool {
	return a.From == b.From && a.To == b.To && a.Amount == b.Amount &&
		a.Fee == b.Fee && a.Nonce == b.Nonce && bytes.Equal(a.Sig, b.Sig)
}

func longest(ledgers []*ledger.Ledger) *ledger.Ledger {
	ref := ledgers[0]
	for _, l := range ledgers[1:] {
		if l.ChainLength() > ref.ChainLength() {
			ref = l
		}
	}
	return ref
}

// replayStats times the chain replay into a fresh ledger.
type replayStats struct {
	rounds           int
	validate, commit []time.Duration // per non-empty block
	root             time.Duration   // full-state Merkle root recomputation
	heapPerRound     float64         // MB retained per committed round
	maxFill          float64         // largest transaction payload / block size
	txns             int
}

// replay re-applies the longest chain to a fresh ledger built from the
// same genesis: every block must validate (signatures, seed, state root)
// and commit, and reproduce its header's StateRoot. It is part of the
// correctness gate and also yields the ledger layer's costs.
func replay(src *ledger.Ledger, provider crypto.Provider, cfg ledger.Config,
	genesis map[crypto.PublicKey]uint64, seed0 crypto.Digest, blockSize int) (replayStats, error) {
	var st replayStats
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l := ledger.New(provider, cfg, genesis, seed0)
	for r := uint64(1); r <= src.ChainLength(); r++ {
		b, _ := src.BlockAt(r)
		cert, _ := src.Certificate(b.Hash())
		t0 := time.Now()
		if err := l.ValidateBlock(b, b.Timestamp); err != nil {
			return st, fmt.Errorf("replay round %d: %v", r, err)
		}
		t1 := time.Now()
		if err := l.Commit(b, cert); err != nil {
			return st, fmt.Errorf("replay round %d: %v", r, err)
		}
		t2 := time.Now()
		if l.Balances().Root() != b.StateRoot || l.HeadHash() != b.Hash() {
			return st, fmt.Errorf("replay round %d: state root not reproduced", r)
		}
		if !b.IsEmpty() {
			st.validate = append(st.validate, t1.Sub(t0))
			st.commit = append(st.commit, t2.Sub(t1))
			st.txns += len(b.Txns)
			fill := float64(b.WireSize()-b.PayloadPadding) / float64(blockSize)
			st.maxFill = max(st.maxFill, fill)
		}
		st.rounds++
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if st.rounds > 0 {
		st.heapPerRound = (float64(m1.HeapInuse) - float64(m0.HeapInuse)) / (1 << 20) / float64(st.rounds)
	}
	// A full root recomputation over the head account table: a Balances
	// assembled field by field rebuilds its tree from the maps.
	head := l.Balances()
	var roots []float64
	for i := 0; i < 3; i++ {
		fresh := &ledger.Balances{Money: head.Money, Nonce: head.Nonce, Total: head.Total}
		t0 := time.Now()
		if fresh.Root() != head.Root() {
			return st, fmt.Errorf("replay: recomputed state root differs")
		}
		roots = append(roots, float64(time.Since(t0)))
	}
	st.root = time.Duration(median(roots))
	// The whole replayed chain must still be live at the heap reading.
	runtime.KeepAlive(l)
	return st, nil
}

// wireReplay encodes and decodes each captured message through the
// canonical codec, checking the round trip, and returns ns per byte.
func wireReplay(msgs []network.Message) (encNsPerByte, decNsPerByte float64, err error) {
	var encNs, decNs, total float64
	for _, m := range msgs {
		tag, ok := nodepkg.MessageTag(m)
		wm, ok2 := m.(wire.Marshaler)
		if !ok || !ok2 {
			continue
		}
		t0 := time.Now()
		data := wire.Encode(wm)
		t1 := time.Now()
		back := nodepkg.NewMessage(tag)
		if err := wire.Decode(data, back.(wire.Unmarshaler)); err != nil {
			return 0, 0, fmt.Errorf("wire replay: %v", err)
		}
		t2 := time.Now()
		if back.ID() != m.ID() {
			return 0, 0, fmt.Errorf("wire replay: %T changed identity in a round trip", m)
		}
		encNs += float64(t1.Sub(t0))
		decNs += float64(t2.Sub(t1))
		total += float64(len(data))
	}
	return ratio(encNs, total), ratio(decNs, total), nil
}
