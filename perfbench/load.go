package main

import (
	"math/rand/v2"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
)

// payment is one generated transaction and what became of it.
type payment struct {
	tx   ledger.Transaction
	node int // the node it is submitted to

	sent        bool
	rejected    bool
	confirmed   bool
	due         time.Duration // open loop: scheduled send time; closed loop: actual send time
	confirmedAt time.Duration // commit on its own node, on the generator's clock
}

type payKey struct {
	from  crypto.PublicKey
	nonce uint64
}

// inputs is everything the generator derives from the seed: client
// keys, idle accounts, and the signed payments in submission order.
type inputs struct {
	clients  []crypto.Identity
	idle     []crypto.PublicKey
	payments []*payment
	byKey    map[payKey]int
}

// Stake layout: consensus nodes hold almost all of the money, so
// sortition committees are the nodes; clients hold enough to pay their
// transactions; idle accounts hold dust and never transact.
const (
	nodeStake   = 1_000_000_000
	clientStake = 10_000
	idleStake   = 100
)

// makeInputs derives clients, idle accounts and payments from seed.
// Client c always submits to node c mod nodes, and its nonces run in
// submission order.
func makeInputs(provider crypto.Provider, seed uint64, clients, idle, count, nodes int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x70617973))
	in := &inputs{byKey: make(map[payKey]int, count)}
	for c := 0; c < clients; c++ {
		in.clients = append(in.clients, provider.NewIdentity(crypto.SeedFromUint64(seed<<32|1<<31|uint64(c))))
	}
	for i := 0; i < idle; i++ {
		var pk crypto.PublicKey
		for j := 0; j < len(pk); j += 8 {
			v := rng.Uint64()
			for b := 0; b < 8; b++ {
				pk[j+b] = byte(v >> (8 * b))
			}
		}
		in.idle = append(in.idle, pk)
	}
	nonces := make([]uint64, clients)
	for k := 0; k < count; k++ {
		from := rng.IntN(clients)
		to := rng.IntN(clients - 1)
		if to >= from {
			to++
		}
		p := &payment{node: from % nodes, tx: ledger.Transaction{
			From:   in.clients[from].PublicKey(),
			To:     in.clients[to].PublicKey(),
			Amount: 1 + rng.Uint64N(5),
			Fee:    1,
			Nonce:  nonces[from],
		}}
		nonces[from]++
		p.tx.Sign(in.clients[from])
		in.byKey[payKey{p.tx.From, p.tx.Nonce}] = k
		in.payments = append(in.payments, p)
	}
	return in
}

// genesis builds the genesis account table for the node keys plus the
// inputs' clients and idle accounts.
func (in *inputs) genesis(nodes []crypto.Identity) map[crypto.PublicKey]uint64 {
	g := make(map[crypto.PublicKey]uint64, len(nodes)+len(in.clients)+len(in.idle))
	for _, id := range nodes {
		g[id.PublicKey()] = nodeStake
	}
	for _, id := range in.clients {
		g[id.PublicKey()] = clientStake
	}
	for _, pk := range in.idle {
		g[pk] = idleStake
	}
	return g
}

// confirm marks every payment of a block committed by node as
// confirmed at time at, if it was submitted to that node. It returns
// how many were newly confirmed.
func (in *inputs) confirm(node int, b *ledger.Block, at time.Duration) int {
	n := 0
	for i := range b.Txns {
		k, ok := in.byKey[payKey{b.Txns[i].From, b.Txns[i].Nonce}]
		if !ok {
			continue // the correctness gate reports it
		}
		p := in.payments[k]
		if p.node == node && p.sent && !p.confirmed {
			p.confirmed, p.confirmedAt = true, at
			n++
		}
	}
	return n
}
