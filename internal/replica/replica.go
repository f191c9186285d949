// Package replica is the replication subsystem: it keeps a follower
// karl.Engine converged to a leader's live state with bounded lag, so
// the cluster layer can fail reads over to followers and promote one to
// leader when its member dies.
//
// There is one mechanism (dynamic_replica.go in package karl has the
// argument): a pull is the leader's engine stream — the bytes Engine.WriteTo
// would write — with a small held-segment block in the place of every sealed
// segment the follower names, by id and fingerprint, as already held. The
// follower installs it and is a mirror of its leader: manifest, dead rows,
// memtable, configuration and counters. Every round carries all the follower
// lacks, so a fresh follower, a steady one, one whose leader restarted, one
// re-pointed at another leader and one disconnected for any length of time
// converge in the same single round; a round the stream's checksums refuse
// changes nothing and is retried at the next tick.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"karl"
)

// The wire values of Status.State: a follower mirrors nothing until its first
// round completes and is live — eligible for read failover and promotion —
// from then on.
const (
	StateSnapshot = "snapshot"
	StateLive     = "live"
)

// Status is the replication status of one engine, leader or follower —
// the JSON unit of GET /v1/replicate/status and the coordinator's
// lag accounting.
type Status struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// State is the follower's state ("snapshot", "live"); empty for
	// leaders.
	State string `json:"state,omitempty"`
	// NextSeq is the engine's next sequence number: for a leader the next
	// insert id, for a follower one past the highest applied seq.
	NextSeq uint64 `json:"next_seq"`
	// Fence is the follower's replication watermark (highest leader seq
	// covered: its mirrored NextSeq−1); 0 for leaders.
	Fence uint64 `json:"fence,omitempty"`
	// DeletePos is the engine's delete counter: total deletes applied
	// (leader) or mirrored (follower).
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
	// successful round — how an operator polling the status endpoint sees a
	// follower that cannot reach or read its leader; empty otherwise.
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

// Source is the follower's view of its leader: HTTPSource, over the leader's
// /v1/replicate/* endpoints. It is an interface so that a test can damage or
// delay what the leader sent.
type Source interface {
	// Pull streams the leader's engine with the segments have names elided
	// (Engine.WriteSnapshot). A nil stream means the leader stands exactly
	// where have says the follower does. The caller closes the stream.
	Pull(ctx context.Context, have karl.ReplicaHave) (io.ReadCloser, error)
}

// leaderStatus is the Status of an engine nothing is replicating into.
func leaderStatus(eng *karl.Engine) Status {
	return Status{
		Role:      "leader",
		NextSeq:   eng.NextSeq(),
		DeletePos: uint64(eng.Deletes()),
		Points:    eng.Len(),
		Epoch:     eng.Epoch(),
	}
}

// ErrPromoted reports a sync attempt against an applier that has been
// promoted: it owns the engine as a leader now and must not apply
// anything from the old one.
var ErrPromoted = errors.New("replica: applier was promoted and no longer pulls")

// Applier owns a follower engine and converges it to a Source: the
// follower half of the subsystem. All applies serialize on the applier;
// the engine stays fully queryable throughout (reads see a consistent
// snapshot per the engine's own locking), which is what makes followers
// usable as read-failover targets. The applier keeps no position of its
// own: what the follower holds is read off its engine each round.
type Applier struct {
	eng *karl.Engine
	src Source

	mu        sync.Mutex
	leaderSeq uint64
	state     string
	promoted  bool
	lastErr   string
}

// NewApplier wraps a follower engine. It need not be empty nor configured
// like the leader: the first round adopts the leader's kernel, policy and
// state wholesale, keeping whatever segments the two already share.
func NewApplier(eng *karl.Engine, src Source) *Applier {
	return &Applier{eng: eng, src: src, state: StateSnapshot}
}

// BootstrapFromSnapshot does nothing: every round is the leader's snapshot
// minus what the follower holds, so there is no other way to start. It
// remains because the benchmark harness calls it.
func (a *Applier) BootstrapFromSnapshot() {}

// Sync performs one pull/apply round, after which the follower mirrors the
// leader as of the pull and is live. A round that fails — an unreachable
// leader, a stream the block checksums refuse — leaves the follower's
// engine and state as they were and its error in Status.LastError.
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
	have := a.eng.Have()
	if a.state != StateLive {
		// Nothing was mirrored from this source yet, so equal counters would
		// not mean equal state: ask for the stream whatever they are (no
		// leader's next id is 0).
		have.NextSeq = 0
	}
	rc, err := a.src.Pull(ctx, have)
	if err != nil {
		return err
	}
	if rc != nil {
		err = a.eng.InstallSnapshot(rc)
		rc.Close()
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
	}
	a.leaderSeq = a.eng.NextSeq()
	a.state = StateLive
	return nil
}

// CatchUp syncs until a round changes nothing — convergence for a quiescent
// leader (the second round), a best-effort floor under a live write load.
func (a *Applier) CatchUp(ctx context.Context) error {
	for {
		before := a.Status()
		if err := a.Sync(ctx); err != nil {
			return err
		}
		after := a.Status()
		if before.State == StateLive && after.NextSeq == before.NextSeq && after.DeletePos == before.DeletePos && after.Epoch == before.Epoch {
			return nil
		}
	}
}

// Run syncs at once and then on the given interval until the context ends
// or the applier is promoted. Transient sync errors do not stop the loop;
// the last one is returned alongside a context end for diagnosis.
func (a *Applier) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var lastErr error
	for {
		switch err := a.Sync(ctx); {
		case err == nil:
			lastErr = nil
		case errors.Is(err, ErrPromoted):
			return nil
		default:
			lastErr = err
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return fmt.Errorf("%w (last sync error: %w)", ctx.Err(), lastErr)
			}
			return ctx.Err()
		case <-t.C:
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

// Status reports the follower's replication status (Role flips to
// "leader" after promotion).
func (a *Applier) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := leaderStatus(a.eng)
	if !a.promoted {
		st.Role, st.State, st.LastError = "follower", a.state, a.lastErr
		st.Fence, st.LeaderSeq = st.NextSeq-1, a.leaderSeq
	}
	return st
}
