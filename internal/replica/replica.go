// Package replica is the replication subsystem: it keeps a follower
// karl.Engine converged to a leader's live state with bounded lag, so
// the cluster layer can fail reads over to followers and promote one to
// leader when its member dies.
//
// The mechanism falls out of the engine's LSM shape. Sealed segments are
// immutable and self-describing, so the leader ships each one the
// follower is missing as a standalone persistence-v7 stream (exactly the
// wire unit shard splits use), followed by the memtable tail above the
// follower's fence sequence number and the seqs deleted since the
// follower's delete-log position. Kernel aggregation is additively
// decomposable and every row carries its cluster-visible seq, so a
// follower that has applied everything up to the fence holds exactly the
// leader's live mass — the ε/τ certificate contracts survive promotion
// verbatim.
//
// The protocol is pull-based and idempotent. A fresh follower records
// the leader's delete position, installs a full snapshot, and then polls
// Pull(fence, deletePos); redelivered segments and rows are skipped by
// seq, and replayed deletes of unknown ids are ignored. When the leader
// reports karl.ErrReplicaResync — its bounded delete log trimmed past
// the follower's position, or the fence falls inside a sealed segment of
// a timed engine — the follower falls back to a full snapshot.
package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"karl"
)

// State is the follower's position in the catch-up state machine:
// snapshot (nothing applied yet), catching-up (snapshot installed,
// incremental pulls not yet through), live (at least one full pull
// cycle completed — eligible for read failover and promotion).
type State int32

const (
	StateSnapshot State = iota
	StateCatchingUp
	StateLive
)

// String implements fmt.Stringer; the strings are the wire values of
// Status.State.
func (s State) String() string {
	switch s {
	case StateSnapshot:
		return "snapshot"
	case StateCatchingUp:
		return "catching-up"
	case StateLive:
		return "live"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Status is the replication status of one engine, leader or follower —
// the JSON unit of GET /v1/replicate/status and the coordinator's
// lag accounting.
type Status struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// State is the follower catch-up state ("snapshot", "catching-up",
	// "live"); empty for leaders.
	State string `json:"state,omitempty"`
	// NextSeq is the engine's next sequence number: for a leader the next
	// insert id, for a follower one past the highest applied seq.
	NextSeq uint64 `json:"next_seq"`
	// Fence is the follower's replication watermark (highest leader seq
	// covered); 0 for leaders.
	Fence uint64 `json:"fence,omitempty"`
	// DeletePos is the delete-log position: total deletes applied
	// (leader) or replayed (follower).
	DeletePos uint64 `json:"delete_pos"`
	// LeaderSeq is the leader's NextSeq as of the follower's last
	// completed pull; 0 for leaders. LeaderSeq − NextSeq is the
	// follower's replication lag in sequence numbers.
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	// Points is the engine's live point count.
	Points int `json:"points"`
	// Epoch is the engine's manifest epoch.
	Epoch uint64 `json:"epoch"`
	// LastError is the most recent sync failure, cleared by the next
	// successful round — how an operator polling the status endpoint
	// sees a follower that is wedged rather than merely behind; empty
	// for leaders and healthy followers.
	LastError string `json:"last_error,omitempty"`
}

// Lag returns the follower's replication lag in sequence numbers as of
// its last completed pull (0 for leaders and caught-up followers).
func (s Status) Lag() uint64 {
	if s.LeaderSeq > s.NextSeq {
		return s.LeaderSeq - s.NextSeq
	}
	return 0
}

// Source is the follower's view of its leader: status, a full snapshot,
// and incremental pulls. EngineSource serves an in-process leader,
// HTTPSource a remote one over /v1/replicate/*.
type Source interface {
	// Status reports the leader's replication counters.
	Status(ctx context.Context) (Status, error)
	// Snapshot streams the leader's full state (a karl.WriteTo stream)
	// and returns the delete-log position captured BEFORE serialization —
	// deletes racing the snapshot are covered twice (in the stream and in
	// the log) rather than lost, and replay is idempotent.
	Snapshot(ctx context.Context) (io.ReadCloser, uint64, error)
	// Pull returns everything above (fence, delPos) as one consistent
	// batch; karl.ErrReplicaResync (possibly wrapped) demands a snapshot.
	Pull(ctx context.Context, fence, delPos uint64) (*karl.ReplicaBatch, error)
}

// EngineSource feeds a follower from an in-process leader engine — the
// Feeder half of the subsystem for single-process clusters and tests.
type EngineSource struct {
	Eng *karl.Engine
}

// Status implements Source.
func (s EngineSource) Status(ctx context.Context) (Status, error) {
	if err := ctx.Err(); err != nil {
		return Status{}, err
	}
	return Status{
		Role:      "leader",
		NextSeq:   s.Eng.NextSeq(),
		DeletePos: s.Eng.DeletePos(),
		Points:    s.Eng.Len(),
		Epoch:     s.Eng.Epoch(),
	}, nil
}

// Snapshot implements Source.
func (s EngineSource) Snapshot(ctx context.Context) (io.ReadCloser, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	delPos := s.Eng.DeletePos()
	var buf bytes.Buffer
	if _, err := s.Eng.WriteTo(&buf); err != nil {
		return nil, 0, err
	}
	return io.NopCloser(&buf), delPos, nil
}

// Pull implements Source.
func (s EngineSource) Pull(ctx context.Context, fence, delPos uint64) (*karl.ReplicaBatch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Eng.PullBatch(fence, delPos)
}

// ErrPromoted reports a sync attempt against an applier that has been
// promoted: it owns the engine as a leader now and must not apply
// anything from the old one.
var ErrPromoted = errors.New("replica: applier was promoted and no longer pulls")

// Applier owns a follower engine and converges it to a Source: the
// follower half of the subsystem. All applies serialize on the applier;
// the engine stays fully queryable throughout (reads see a consistent
// snapshot per the engine's own locking), which is what makes followers
// usable as read-failover targets while catching up.
type Applier struct {
	eng *karl.Engine
	src Source

	mu        sync.Mutex
	fence     uint64
	delPos    uint64
	leaderSeq uint64
	state     State
	promoted  bool
	bootstrap bool
	lastErr   string

	syncs   atomic.Int64
	resyncs atomic.Int64
}

// NewApplier wraps an empty follower engine. The engine must share the
// leader's kernel; everything else (policy, dims, manifest) arrives with
// the first snapshot or segment stream.
func NewApplier(eng *karl.Engine, src Source) *Applier {
	return &Applier{eng: eng, src: src, state: StateSnapshot}
}

// Engine returns the follower engine (for serving reads).
func (a *Applier) Engine() *karl.Engine { return a.eng }

// BootstrapFromSnapshot makes the applier's first sync install a full
// leader snapshot before pulling the tail, instead of attempting an
// incremental catch-up from seq 0. The snapshot adopts the leader's
// kernel and maintenance configuration wholesale, so the local engine
// need not have been built to match — this is how a follower whose
// engine was configured independently of its leader (karl-serve
// -replica-of) avoids the contract NewApplier otherwise imposes. Must
// be called before the first Sync; the engine must be empty.
func (a *Applier) BootstrapFromSnapshot() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bootstrap = true
}

// Sync performs one pull/apply round: everything above the follower's
// (fence, delete-pos) lands in one batch. A leader resync demand
// (trimmed delete log, a straddled timed segment) falls back to a full snapshot
// when the follower is still empty and fails otherwise. After the first
// successful round the follower is live.
func (a *Applier) Sync(ctx context.Context) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.promoted {
		return ErrPromoted
	}
	err := a.syncLocked(ctx)
	if err != nil {
		a.lastErr = err.Error()
	} else {
		a.lastErr = ""
	}
	return err
}

func (a *Applier) syncLocked(ctx context.Context) error {
	if a.bootstrap {
		if err := a.resyncLocked(ctx); err != nil {
			return err
		}
		a.bootstrap = false
	}
	b, err := a.src.Pull(ctx, a.fence, a.delPos)
	if errors.Is(err, karl.ErrReplicaResync) {
		if err := a.resyncLocked(ctx); err != nil {
			return err
		}
		b, err = a.src.Pull(ctx, a.fence, a.delPos)
	}
	if err != nil {
		return err
	}
	fence, err := a.eng.ApplyBatch(b)
	if err != nil {
		return fmt.Errorf("replica: applying batch at fence %d: %w", a.fence, err)
	}
	a.fence, a.delPos, a.leaderSeq = fence, b.DeletePos, b.NextSeq
	a.state = StateLive
	a.syncs.Add(1)
	return nil
}

// resyncLocked bootstraps from a full snapshot. Called with a.mu held.
func (a *Applier) resyncLocked(ctx context.Context) error {
	rc, delPos, err := a.src.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	defer rc.Close()
	a.state = StateSnapshot
	if err := a.eng.InstallSnapshot(rc); err != nil {
		return fmt.Errorf("replica: installing snapshot: %w", err)
	}
	a.fence = a.eng.NextSeq() - 1
	a.delPos = delPos
	a.state = StateCatchingUp
	a.resyncs.Add(1)
	return nil
}

// CatchUp syncs until the follower is live AND a final round ships
// nothing new — bounded-lag convergence for a quiescent leader, a
// best-effort floor under a live write load.
func (a *Applier) CatchUp(ctx context.Context) error {
	for {
		before := a.Status()
		if err := a.Sync(ctx); err != nil {
			return err
		}
		after := a.Status()
		if after.State == StateLive.String() && after.NextSeq == before.NextSeq && after.DeletePos == before.DeletePos && before.State == StateLive.String() {
			return nil
		}
	}
}

// Run polls Sync on the given interval until the context ends or the
// applier is promoted. Transient sync errors do not stop the loop; the
// last one is returned alongside a context end for diagnosis.
func (a *Applier) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return fmt.Errorf("%w (last sync error: %w)", ctx.Err(), lastErr)
			}
			return ctx.Err()
		case <-t.C:
		}
		switch err := a.Sync(ctx); {
		case err == nil:
			lastErr = nil
		case errors.Is(err, ErrPromoted):
			return nil
		default:
			lastErr = err
		}
	}
}

// Promote ends replication and hands the engine over as a leader: the
// applier refuses further syncs, and the caller (the coordinator's
// failover, or the serve process's promote endpoint) starts routing
// writes to the engine. Idempotent.
func (a *Applier) Promote() *karl.Engine {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.promoted = true
	// A dead leader usually leaves a failed pull behind; the new leader's
	// status must not keep reporting it.
	a.lastErr = ""
	return a.eng
}

// Promoted reports whether Promote has been called.
func (a *Applier) Promoted() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promoted
}

// Syncs returns the number of completed sync rounds.
func (a *Applier) Syncs() int64 { return a.syncs.Load() }

// Resyncs returns the number of full-snapshot bootstraps taken.
func (a *Applier) Resyncs() int64 { return a.resyncs.Load() }

// Status reports the follower's replication status (Role flips to
// "leader" after promotion).
func (a *Applier) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		Role:      "follower",
		State:     a.state.String(),
		NextSeq:   a.eng.NextSeq(),
		Fence:     a.fence,
		DeletePos: a.delPos,
		LeaderSeq: a.leaderSeq,
		Points:    a.eng.Len(),
		Epoch:     a.eng.Epoch(),
		LastError: a.lastErr,
	}
	if a.promoted {
		st.Role = "leader"
		st.State = ""
	}
	return st
}
