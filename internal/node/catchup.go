package node

import (
	"fmt"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/vtime"
)

// DebugCatchup, when set by tests, traces sync progress.
var DebugCatchup func(id int, what string, chain uint64)

// This file implements the networked side of §8.3 bootstrapping: a
// node serves its archive to peers (ChainRequest → ChainReply), and a
// fresh node can synchronize its ledger from the network, validating
// every block against its certificate as it goes — the same trustless
// validation ledger.CatchUp performs offline.

// handleChainRequest serves up to MaxBlocks consecutive archived rounds.
func (n *Node) handleChainRequest(msg *ChainRequest) network.Verdict {
	max := msg.MaxBlocks
	if max <= 0 || max > 64 {
		max = 64
	}
	// Serve the canonical chain, not the raw archive: after §8.2
	// recovery the archive may still hold an abandoned fork's block for
	// an adopted round. Blocks without a certificate of their own
	// (recovery adoptions) are included only up to the last certified
	// block — beyond that the receiver could not validate them.
	reply := &ChainReply{Recipient: msg.Requester, Nonce: msg.Nonce}
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	servable := 0
	for r := msg.FromRound; r < msg.FromRound+uint64(max); r++ {
		b, ok := n.ledger.BlockAt(r)
		if !ok {
			break
		}
		blocks = append(blocks, b)
		if c, ok := n.ledger.Certificate(b.Hash()); ok {
			certs = append(certs, c)
			servable = len(blocks)
		}
	}
	reply.Blocks = blocks[:servable]
	reply.Certs = certs
	if len(reply.Blocks) > 0 {
		n.net.Unicast(n.ID, msg.Requester, reply)
	}
	return network.Verdict{Relay: false}
}

// CommitteeParamsFor derives the certificate-verification
// configuration from protocol parameters — the same derivation for
// every verifier of the chain, consensus node or access gateway.
func CommitteeParamsFor(p params.Params) ledger.CommitteeParams {
	return ledger.CommitteeParams{
		TauStep:        p.TauStep,
		StepThreshold:  p.StepThreshold(),
		TauFinal:       p.TauFinal,
		FinalThreshold: p.FinalThreshold(),
		MaxStep:        agreement.WireStepOfBinary(p.MaxSteps),
	}
}

// committeeParams derives the certificate-verification configuration
// from the node's protocol parameters.
func (n *Node) committeeParams() ledger.CommitteeParams {
	return CommitteeParamsFor(n.cfg.Params)
}

// applyRun commits a run through the ledger's run-apply and archives
// what it committed: certified blocks with their certificates,
// recovery adoptions forced onto the canonical chain.
func (n *Node) applyRun(run []ledger.Certified) ([]ledger.Certified, error) {
	done, err := n.ledger.ApplyRun(run, n.committeeParams())
	for _, x := range done {
		if x.Cert != nil {
			n.persistPut(x.Block, x.Cert)
		} else {
			n.persistReconcile(x.Block, nil)
		}
	}
	return done, err
}

// applyChainReply validates and commits a reply's blocks in order,
// returning how many rounds advanced.
func (n *Node) applyChainReply(reply *ChainReply) (int, error) {
	done, err := n.applyRun(ledger.PairCerts(reply.Blocks, reply.Certs))
	if err != nil {
		err = fmt.Errorf("catchup: %w", err)
	}
	return len(done), err
}

// Restore rebuilds a restarted node's ledger from its own disk (§8.3),
// trusting it no more than a peer. A checkpoint (nil = none) that
// advances the chain is verified exactly like a served snapshot and,
// if it passes, re-bases the ledger so the replay covers only the
// delta past it; a failing one is counted and ignored, leaving the
// full replay as the fallback. The archive src is then replayed from
// the head, every block checked against its certificate. Replay stops
// at the first round whose block or certificate is missing
// (recovery-adopted blocks are committed without certificates, so gaps
// are legitimate); the remainder is fetched from peers. Returns the
// number of rounds replayed from the archive.
func (n *Node) Restore(chk *ledger.Checkpoint, src *ledger.Store) (uint64, error) {
	if chk != nil && chk.Round() > n.ledger.ChainLength() {
		// adoptCheckpoint counts a failure and leaves the ledger
		// untouched; the replay below is the fallback.
		_ = n.adoptCheckpoint(chk)
	}
	var run []ledger.Certified
	for r := n.ledger.NextRound(); ; r++ {
		b, okB := src.Block(r)
		c, okC := src.Cert(r)
		if !okB || !okC {
			break
		}
		run = append(run, ledger.Certified{Block: b, Cert: c})
	}
	done, err := n.applyRun(run)
	if err != nil {
		err = fmt.Errorf("restore: %w", err)
	}
	return uint64(len(done)), err
}

// SyncFromPeersUntil catches the node's ledger up to the network
// (§8.3): it repeatedly asks peers for the next run of blocks and
// certificates and validates them from its current head, stopping when
// no peer has more, the deadline passes, or the ledger reaches target
// (0 = sync everything). It must run inside the node's scheduler.
func (n *Node) SyncFromPeersUntil(p *vtime.Proc, deadline time.Duration, target uint64) (uint64, error) {
	peers := n.net.Neighbors(n.ID)
	if len(peers) == 0 {
		return 0, fmt.Errorf("catchup: no peers")
	}
	inbox := n.catchupInbox()
	peerIdx := 0
	stalls := 0
	probedFork := false
	fromOverride := uint64(0)
	for p.Now() < deadline && stalls < 2*len(peers) {
		if target > 0 && n.ledger.ChainLength() >= target {
			break
		}
		n.reqNonce++
		req := &ChainRequest{
			FromRound: n.ledger.NextRound(),
			MaxBlocks: 32,
			Requester: n.ID,
			Nonce:     n.reqNonce,
		}
		if fromOverride > 0 {
			req.FromRound = fromOverride
			fromOverride = 0
		}
		n.net.Unicast(n.ID, peers[peerIdx%len(peers)], req)
		peerIdx++

		m, ok := p.RecvTimeout(inbox, 2*time.Second)
		if !ok {
			if DebugCatchup != nil {
				DebugCatchup(n.ID, "stall", n.ledger.ChainLength())
			}
			stalls++
			continue
		}
		reply := m.(*ChainReply)
		applied, err := n.applyChainReply(reply)
		if DebugCatchup != nil {
			DebugCatchup(n.ID, fmt.Sprintf("applied %d err %v", applied, err), n.ledger.ChainLength())
		}
		if err != nil {
			// The peer's chain conflicts with ours below our head: we may
			// hold the losing side of a tentative fork (§8.2). Try to adopt
			// the peer's branch on the strength of its certificates.
			if n.tryAdoptFork(reply) {
				stalls = 0
				continue
			}
			// The divergence may start below the reply's first round, in
			// which case the reply never shows us the fork point. Re-request
			// once from just past our last final block — the earliest round
			// a fork can live at — so the next reply spans the divergence.
			if !probedFork {
				probedFork = true
				fromOverride = n.ledger.LastFinal().Round + 1
				continue
			}
			return n.ledger.ChainLength(), err
		}
		if applied == 0 {
			stalls++
		} else {
			stalls = 0
		}
	}
	return n.ledger.ChainLength(), nil
}

// tryAdoptFork reconciles this node onto a strictly longer certified
// chain served by a peer whose blocks conflict with our own tentative
// suffix. A node that committed the losing side of a tentative fork —
// say it crossed a step threshold for the empty block while the rest of
// the network certified a proposal one step later — is wedged: its own
// rounds extend a branch nobody else builds on, catch-up refuses the
// conflicting peer data, and it cannot finish §8.2 recovery alone,
// because a minority never reaches the recovery vote threshold against
// a healthy majority that skips its checkpoints. The §8.3 certificate
// chain is the transferable proof that frees it: verify the competing
// branch from the fork point exactly as regular catch-up would, and
// switch to it iff it is certified strictly past our head and abandons
// no final block. Finality is forever — a conflicting *final* block is
// a safety violation to surface, never to paper over by switching.
func (n *Node) tryAdoptFork(reply *ChainReply) bool {
	// Locate the divergence: the first reply block at a round we also
	// have, carrying a different block.
	var fork *ledger.Block
	idx := -1
	for i, b := range reply.Blocks {
		ours, ok := n.ledger.BlockAt(b.Round)
		if !ok {
			break // past our head: no same-round conflict in this reply
		}
		if ours.Hash() != b.Hash() {
			fork, idx = b, i
			break
		}
	}
	if fork == nil {
		return false
	}
	// The competing branch must graft onto our canonical chain…
	parent, ok := n.ledger.BlockAt(fork.Round - 1)
	if !ok || parent.Hash() != fork.PrevHash {
		return false
	}
	// …must not abandon finalized history…
	if n.ledger.LastFinal().Round >= fork.Round {
		return false
	}
	// …and must be certified strictly past our head, so the switch is
	// backed by proof of a longer chain rather than taste.
	run := ledger.PairCerts(reply.Blocks[idx:], reply.Certs)
	certifiedTo := uint64(0)
	for _, x := range run {
		if x.Cert != nil {
			certifiedTo = x.Block.Round
		}
	}
	prevLen := n.ledger.ChainLength()
	if certifiedTo <= prevLen {
		return false
	}
	// Replay regular catch-up from the fork parent: every certificate is
	// verified on the competing branch before the switch sticks, and any
	// failure restores the original head. Our abandoned blocks stay in
	// the ledger as a dead side branch, like a lost recovery fork.
	prevHead := n.ledger.HeadHash()
	if n.ledger.SwitchHead(parent.Hash()) != nil {
		return false
	}
	done, err := n.ledger.ApplyRun(run, n.committeeParams())
	if err != nil || n.ledger.ChainLength() <= prevLen {
		n.ledger.SwitchHead(prevHead)
		return false
	}
	// Archive the adopted run and force the archives onto it, as §8.2
	// repair does: a restart must replay the canonical chain, not the
	// abandoned fork.
	for _, x := range done {
		if x.Cert != nil {
			n.persistPut(x.Block, x.Cert)
		}
		n.persistReconcile(x.Block, x.Cert)
	}
	n.forkAdoptions.Inc()
	if DebugCatchup != nil {
		DebugCatchup(n.ID, fmt.Sprintf("adopted fork at round %d", fork.Round), n.ledger.ChainLength())
	}
	return true
}

// catchupInbox returns the mailbox chain replies are routed to.
func (n *Node) catchupInbox() *vtime.Mailbox {
	if n.chainReplies == nil {
		n.chainReplies = n.sim.NewMailbox()
	}
	return n.chainReplies
}

// trySyncBehind probes peers for committed rounds we are missing, in
// short bounded bites so a genuinely stalled network (nobody has more
// blocks than we do) costs only ~10 virtual seconds before the caller
// falls through to §8.2 recovery. Returns whether the chain advanced.
func (n *Node) trySyncBehind() bool {
	before := n.ledger.ChainLength()
	for !n.halted {
		prev := n.ledger.ChainLength()
		if _, err := n.SyncFromPeersUntil(n.proc, n.proc.Now()+10*time.Second, 0); err != nil {
			// Peer data conflicts with our chain and the sync loop's fork
			// adoption could not resolve it (not longer, or final blocks
			// diverge): leave it to §8.2 recovery.
			break
		}
		if n.ledger.ChainLength() == prev {
			break
		}
	}
	return n.ledger.ChainLength() > before
}

// StartAfterSync spawns the node's process in rejoin mode: it catches
// up from peers, then attempts a live round; if that round fails — the
// network had moved on while we synced — it re-syncs and tries again
// instead of invoking §8.2 fork recovery (a node that is merely behind
// is not forked). Once a round completes in lockstep it falls into the
// regular loop. syncBudget bounds the rejoin phase; a cycle that syncs
// nothing AND fails its round ends it early, because spinning cannot
// help then — peers have nothing servable beyond our head, so either
// the whole network is stalled or we are forked from it. Both are the
// main loop's job: its checkpoints run §8.2 recovery.
func (n *Node) StartAfterSync(syncBudget time.Duration) {
	n.sim.Spawn(fmt.Sprintf("node-%d-rejoin", n.ID), func(p *vtime.Proc) {
		n.proc = p
		n.rejoinLoop(p, syncBudget)
	})
}

// rejoinLoop is the body of StartAfterSync (also the tail of the
// snapshot-first rejoin, see StartAfterSnapshotSync): sync, try a live
// round, repeat within the budget, then fall into the main loop.
func (n *Node) rejoinLoop(p *vtime.Proc, syncBudget time.Duration) {
	deadline := p.Now() + syncBudget
	for !n.sim.Stopped() && !n.halted {
		before := n.ledger.ChainLength()
		if _, err := n.SyncFromPeersUntil(p, deadline, 0); err != nil {
			return // inconsistent peer data; give up rather than diverge
		}
		if n.StopAfterRound > 0 && n.ledger.NextRound() > n.StopAfterRound {
			return
		}
		if err := n.runRound(); err == nil {
			break // back in lockstep with the network
		}
		if p.Now() >= deadline || n.ledger.ChainLength() == before {
			break
		}
	}
	n.run()
}
