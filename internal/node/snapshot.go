package node

import (
	"errors"
	"fmt"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/vtime"
)

// This file implements checkpointed fast sync: nodes write periodic
// state checkpoints (block header + certificate + full account table),
// serve them to peers on request, and a restarting or joining node
// re-bases its ledger onto a verified checkpoint and replays only the
// delta through regular §8.3 catch-up — O(delta) recovery instead of
// O(chain).

// MisbehaviorReporter is optionally implemented by transports that
// score peer misbehavior (internal/realnet does): a peer that serves a
// snapshot failing verification is reported, feeding the transport's
// quarantine machinery.
type MisbehaviorReporter interface {
	ReportMisbehavior(peer int, reason string)
}

// maybeCheckpoint writes a state checkpoint when a commit lands on the
// checkpoint grid: every persisted round whose number is a positive
// multiple of CheckpointInterval, certified by a regular (non-recovery)
// certificate. Recovery-certified rounds are skipped — their proof
// needs the adopter's chain context, which a fast-syncing node does
// not have yet; the next grid round carries a normal certificate.
func (n *Node) maybeCheckpoint(b *ledger.Block, c *ledger.Certificate) {
	interval := n.cfg.CheckpointInterval
	if interval == 0 || b.Round == 0 || b.Round%interval != 0 {
		return
	}
	if c == nil || c.Value != b.Hash() || c.Round >= ledger.RecoveryRoundBase {
		return
	}
	if n.checkpoint != nil && n.checkpoint.Round() >= b.Round {
		return
	}
	bal, ok := n.ledger.BalancesAt(b.Hash())
	if !ok {
		return
	}
	cp := ledger.CheckpointOf(b, c, bal)
	n.checkpoint = cp
	if n.archive != nil {
		if err := n.archive.AppendCheckpoint(cp); err != nil {
			n.persistErrors.Add(1)
			n.persistErrCounter.Inc()
		}
	}
}

// Checkpoint returns the newest state snapshot this node holds, if any.
func (n *Node) Checkpoint() (*ledger.Checkpoint, bool) {
	return n.checkpoint, n.checkpoint != nil
}

// handleSnapshotRequest serves this node's newest checkpoint to a
// fast-syncing peer, if it is newer than what the requester already
// has.
func (n *Node) handleSnapshotRequest(msg *SnapshotRequest) network.Verdict {
	if n.checkpoint != nil && n.checkpoint.Round() > msg.MinRound {
		n.net.Unicast(n.ID, msg.Requester, &SnapshotReply{
			Checkpoint: n.checkpoint,
			Recipient:  msg.Requester,
			Nonce:      msg.Nonce,
		})
	}
	return network.Verdict{Relay: false}
}

// snapshotInbox returns the mailbox snapshot replies are routed to.
func (n *Node) snapshotInbox() *vtime.Mailbox {
	if n.snapReplies == nil {
		n.snapReplies = n.sim.NewMailbox()
	}
	return n.snapReplies
}

// verifyCheckpoint checks a checkpoint as transferable proof that the
// network committed its block, using only common knowledge: a fresh
// genesis ledger, so a hostile snapshot cannot lean on any state it
// shipped. Structural integrity first (certificate is for the block,
// account table hashes to the header's state root), then the
// certificate itself through ledger.VerifyCertified, against the
// committee that genesis context derives for the checkpointed round.
// A checkpoint past the first seed-refresh epoch needs chain history
// genesis alone cannot supply — for its own round or for the next
// one, which the re-based ledger must judge — and fails with
// ledger.ErrContextUnavailable: refused, but no evidence of forgery.
func (n *Node) verifyCheckpoint(chk *ledger.Checkpoint) error {
	if _, err := chk.VerifyState(); err != nil {
		return err
	}
	b := chk.Block
	if chk.Cert.Round >= ledger.RecoveryRoundBase {
		return fmt.Errorf("snapshot: round %d carries a recovery certificate, not syncable without chain context", b.Round)
	}
	base := ledger.New(n.provider, n.cfg.LedgerCfg, n.genesisAccounts, n.seed0)
	if err := ledger.VerifyCertified(n.provider, base, b, chk.Cert, n.committeeParams()); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if !base.SortitionContextKnown(b.Round + 1) {
		return fmt.Errorf("snapshot: %w for round %d", ledger.ErrContextUnavailable, b.Round+1)
	}
	return nil
}

// adoptCheckpoint verifies chk and re-bases the node's ledger onto it.
// The old ledger (and anything tentative on it) is discarded; the
// checkpoint anchors finality. On failure the ledger is untouched, and
// the checkpoint is counted as set aside (ledger.ErrContextUnavailable)
// or as rejected.
func (n *Node) adoptCheckpoint(chk *ledger.Checkpoint) error {
	err := n.verifyCheckpoint(chk)
	var l *ledger.Ledger
	if err == nil {
		l, err = ledger.NewFromCheckpoint(n.provider, n.cfg.LedgerCfg, n.genesisAccounts, n.seed0, chk)
	}
	if errors.Is(err, ledger.ErrContextUnavailable) {
		n.snapNoContext.Inc()
		return err
	}
	if err != nil {
		n.snapRejects.Inc()
		return err
	}
	n.ledger = l
	if n.checkpoint == nil || chk.Round() > n.checkpoint.Round() {
		n.checkpoint = chk
	}
	n.persistPut(chk.Block, chk.Cert)
	if n.archive != nil {
		if err := n.archive.AppendCheckpoint(chk); err != nil {
			n.persistErrors.Add(1)
			n.persistErrCounter.Inc()
		}
	}
	return nil
}

// trySnapshotSync asks peers round-robin for a checkpoint newer than
// our chain and adopts the first one that verifies, with backoff
// between attempts. Peers serving snapshots that fail verification are
// counted, reported to the transport's misbehavior scoring, and
// skipped; the sync then continues with the next peer. A snapshot
// genesis cannot judge (past the first seed epoch) is skipped without
// a report: an honest peer serves those. Returns whether the ledger
// was re-based — on false the caller falls back to full replay from
// its current head (ultimately genesis), so a poisoned or stale
// snapshot can delay a join but never corrupt or wedge it.
func (n *Node) trySnapshotSync(p *vtime.Proc) bool {
	peers := n.net.Neighbors(n.ID)
	if len(peers) == 0 {
		return false
	}
	inbox := n.snapshotInbox()
	for attempt, peer := range peers {
		if attempt > 0 {
			p.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		if n.halted {
			return false
		}
		n.reqNonce++
		n.net.Unicast(n.ID, peer, &SnapshotRequest{
			MinRound:  n.ledger.ChainLength(),
			Requester: n.ID,
			Nonce:     n.reqNonce,
		})
		m, ok := p.RecvTimeout(inbox, 2*time.Second)
		if !ok {
			continue // peer has no newer checkpoint, or is gone
		}
		chk := m.(*SnapshotReply).Checkpoint
		if chk.Round() <= n.ledger.ChainLength() {
			continue
		}
		if err := n.adoptCheckpoint(chk); err != nil {
			if DebugCatchup != nil {
				DebugCatchup(n.ID, fmt.Sprintf("snapshot from %d rejected: %v", peer, err), n.ledger.ChainLength())
			}
			if mr, ok := n.net.(MisbehaviorReporter); ok && !errors.Is(err, ledger.ErrContextUnavailable) {
				mr.ReportMisbehavior(peer, "snapshot failed verification")
			}
			continue
		}
		n.snapSyncs.Inc()
		if DebugCatchup != nil {
			DebugCatchup(n.ID, fmt.Sprintf("snapshot sync to round %d", chk.Round()), n.ledger.ChainLength())
		}
		return true
	}
	return false
}

// StartAfterSnapshotSync is StartAfterSync with the snapshot-first
// path: fetch and verify the newest peer checkpoint, re-base, then
// rejoin through the regular sync-and-run loop (which replays the
// delta past the checkpoint).
func (n *Node) StartAfterSnapshotSync(syncBudget time.Duration) {
	n.sim.Spawn(fmt.Sprintf("node-%d-snapsync", n.ID), func(p *vtime.Proc) {
		n.proc = p
		n.trySnapshotSync(p)
		n.rejoinLoop(p, syncBudget)
	})
}
