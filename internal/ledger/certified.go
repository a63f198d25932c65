package ledger

import (
	"errors"
	"fmt"

	"algorand/internal/crypto"
	"algorand/internal/wire"
)

// CommitteeParams captures what certificate verification needs to know
// about committee sizing for a step.
type CommitteeParams struct {
	TauStep        uint64
	StepThreshold  uint64
	TauFinal       uint64
	FinalThreshold uint64
	// MaxStep bounds the step number a certificate may claim (0 = no
	// bound). §8.3: an adversary could otherwise search an unbounded
	// number of step numbers for one where it controls the committee
	// by chance; honest certificates never exceed the wire step of
	// BinaryBA⋆'s MaxSteps.
	MaxStep uint64
}

// RecoveryRoundBase offsets §8.2 recovery BA⋆ executions into their own
// round-number space so their sortition roles and vote buffers never
// collide with regular rounds. A certificate at or past it proves a
// recovery adoption rather than a chain round.
const RecoveryRoundBase = uint64(1) << 40

// RecoverySeed derives the sortition seed of one recovery attempt from
// its base block and coordinates. The coordinates are wire-encoded so
// the preimage layout is the codec's, not ad hoc.
func RecoverySeed(base *Block, checkpoint, attempt uint64) crypto.Digest {
	e := wire.NewEncoderSize(16)
	e.Uint64(checkpoint)
	e.Uint64(attempt)
	return crypto.HashBytes("algorand.recovery.seed", base.Seed[:], e.Data())
}

// ErrContextUnavailable reports that the verifying ledger does not hold
// the blocks that supply a round's sortition seed and look-back
// weights, so a certificate for that round can be neither accepted nor
// refuted — it is no evidence that whoever served it lied.
var ErrContextUnavailable = errors.New("ledger: sortition context unavailable")

// VerifyCertified is the one §8.3 check that certificate c proves
// block b, with committee context taken from ctx. τ and threshold
// follow the certificate's kind (final or step) and a step certificate
// may not claim a step past cp.MaxStep. A regular certificate must be
// for b's own round — seed and weights are ctx's for that round, and
// every vote must extend b.PrevHash. A §8.2 recovery certificate
// instead names its base block through its votes' PrevHash; the base
// must sit on ctx's canonical chain, and the recovery round's seed
// and the base block's stake distribution judge the votes.
func VerifyCertified(p crypto.Provider, ctx *Ledger, b *Block, c *Certificate, cp CommitteeParams) error {
	if c.Value != b.Hash() {
		return fmt.Errorf("ledger: round %d certificate is for a different block", b.Round)
	}
	tau, threshold := cp.TauStep, cp.StepThreshold
	if c.Final {
		tau, threshold = cp.TauFinal, cp.FinalThreshold
	} else if cp.MaxStep != 0 && c.Step > cp.MaxStep {
		return fmt.Errorf("ledger: round %d certificate claims step %d beyond bound %d", b.Round, c.Step, cp.MaxStep)
	}
	if c.Round >= RecoveryRoundBase {
		if len(c.Votes) == 0 {
			return errors.New("ledger: recovery certificate has no votes")
		}
		baseHash := c.Votes[0].PrevHash
		e, ok := ctx.entries[baseHash]
		if !ok || ancestorAt(ctx.head, e.block.Round) != e {
			return errors.New("ledger: recovery certificate base is not on our chain")
		}
		off := c.Round - RecoveryRoundBase
		seed := RecoverySeed(e.block, off/1024, off%1024)
		return c.Verify(p, seed, e.balances.Money, e.balances.Total, tau, threshold, baseHash)
	}
	if c.Round != b.Round {
		return fmt.Errorf("ledger: round %d certificate is for round %d", b.Round, c.Round)
	}
	if !ctx.SortitionContextKnown(b.Round) {
		return fmt.Errorf("%w for round %d", ErrContextUnavailable, b.Round)
	}
	weights, total := ctx.SortitionWeights(b.Round)
	return c.Verify(p, ctx.SortitionSeed(b.Round), weights, total, tau, threshold, b.PrevHash)
}

// Certified is a block with the certificate that proves it. Cert is
// nil for a block with no certificate of its own (a §8.2 recovery
// adoption), which only a later certificate in the same run can anchor.
type Certified struct {
	Block *Block
	Cert  *Certificate
}

// PairCerts pairs each block with the certificate in certs that
// certifies it, if any — the form ApplyRun takes, built from a chain
// reply's unordered certificate list.
func PairCerts(blocks []*Block, certs []*Certificate) []Certified {
	certOf := make(map[crypto.Digest]*Certificate, len(certs))
	for _, c := range certs {
		if c != nil {
			certOf[c.Value] = c
		}
	}
	run := make([]Certified, 0, len(blocks))
	for _, b := range blocks {
		if b != nil {
			run = append(run, Certified{b, certOf[b.Hash()]})
		}
	}
	return run
}

// ApplyRun commits a run of blocks on top of the head — the one apply
// step behind catch-up, archive restore, fork adoption and read
// models. A block without a certificate commits only beneath a later
// certified block of the run: the certificate commits to that anchor,
// and the anchor to every ancestor through PrevHash, so one valid
// certificate validates the whole prefix (§8.3). Blocks not at the
// next round are skipped as stale or ahead, and trailing blocks with
// no anchor are dropped. A prefix whose anchor fails is rolled back —
// the head is restored and its entries stay behind as a dead side
// branch — and the run stops. ApplyRun returns what it committed
// before any failure, in chain order, so the caller can archive it.
func (l *Ledger) ApplyRun(run []Certified, cp CommitteeParams) ([]Certified, error) {
	var done, pending []Certified
	for _, x := range run {
		if x.Block.Round != l.NextRound()+uint64(len(pending)) {
			continue
		}
		pending = append(pending, x)
		if x.Cert == nil {
			continue
		}
		prevHead := l.HeadHash()
		if err := l.applyCertified(pending, cp); err != nil {
			l.SwitchHead(prevHead)
			return done, err
		}
		done = append(done, pending...)
		pending = nil
	}
	return done, nil
}

// applyCertified commits run, whose last block alone carries a
// certificate, on top of the head. The prefix commits first: the
// anchor's seed, weights or recovery base may live on it.
func (l *Ledger) applyCertified(run []Certified, cp CommitteeParams) error {
	prev := l.HeadHash()
	for _, x := range run {
		if x.Block.PrevHash != prev {
			return fmt.Errorf("ledger: round %d breaks the hash chain", x.Block.Round)
		}
		prev = x.Block.Hash()
	}
	anchor := run[len(run)-1]
	for _, x := range run[:len(run)-1] {
		if err := l.validateAndCommit(x.Block, nil); err != nil {
			return err
		}
	}
	if err := VerifyCertified(l.provider, l, anchor.Block, anchor.Cert, cp); err != nil {
		return fmt.Errorf("ledger: round %d certificate invalid: %w", anchor.Block.Round, err)
	}
	return l.validateAndCommit(anchor.Block, anchor.Cert)
}

// validateAndCommit runs the §8.1 checks on b at the head and commits
// it. Timestamps are checked for ordering only (now = block time): the
// verifier was not present when the block was made.
func (l *Ledger) validateAndCommit(b *Block, cert *Certificate) error {
	if err := l.ValidateBlock(b, b.Timestamp); err != nil {
		return fmt.Errorf("ledger: round %d block invalid: %w", b.Round, err)
	}
	if err := l.Commit(b, cert); err != nil {
		return fmt.Errorf("ledger: round %d commit: %w", b.Round, err)
	}
	return nil
}

// CatchUp bootstraps a new user (§8.3): given the genesis configuration
// and the chain of blocks with certificates, it validates everything in
// order — certificates against the sortition seeds and weights of each
// round, blocks against the evolving state — and returns a ledger at
// the resulting head. This is exactly what a user joining the system
// runs, and it requires no trust in whoever supplied the blocks. A nil
// certificate marks a recovery adoption, which a later certificate in
// the chain must anchor.
func CatchUp(
	p crypto.Provider,
	cfg Config,
	genesisAccounts map[crypto.PublicKey]uint64,
	seed0 crypto.Digest,
	blocks []*Block,
	certs []*Certificate,
	cp CommitteeParams,
) (*Ledger, error) {
	if len(blocks) != len(certs) {
		return nil, fmt.Errorf("ledger: %d blocks but %d certificates", len(blocks), len(certs))
	}
	run := make([]Certified, len(blocks))
	for i, b := range blocks {
		run[i] = Certified{b, certs[i]}
	}
	l := New(p, cfg, genesisAccounts, seed0)
	done, err := l.ApplyRun(run, cp)
	if err == nil && len(done) < len(blocks) {
		err = fmt.Errorf("ledger: only %d of %d blocks apply in order under a certificate", len(done), len(blocks))
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}
