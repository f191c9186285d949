// Replication-aware membership: followers attached to writable-cluster
// members serve as read hedge targets while their leader is healthy and
// as promotion candidates when it dies. The failover path keeps gid
// lineage intact — a promoted follower takes over the member's ID (and
// with it every cluster-global id the member ever assigned), only the
// member's name changes to the follower's.
package cluster

import (
	"context"
	"fmt"
	"sync"

	"karl/internal/replica"
	"karl/internal/shard"
)

// FollowerClient is a replication follower attached to a writable-cluster
// member: a read client the coordinator can hedge and fail over queries
// to, plus the replication controls — status for lag accounting and
// Promote for leader failover.
type FollowerClient interface {
	ShardClient
	// ReplicaStatus reports the follower's catch-up state and watermark.
	ReplicaStatus(ctx context.Context) (replica.Status, error)
	// Promote turns the follower into a leader and returns the mutable
	// client the coordinator routes the member's writes to from now on.
	Promote(ctx context.Context) (MutableShardClient, error)
}

// ReplicaStatus makes HTTPShard a FollowerClient via GET
// /v1/replicate/status — a karl-serve -replica-of process.
func (s *HTTPShard) ReplicaStatus(ctx context.Context) (replica.Status, error) {
	var st replica.Status
	if err := s.get(ctx, "/v1/replicate/status", &st); err != nil {
		return replica.Status{}, err
	}
	return st, nil
}

// Promote makes HTTPShard a FollowerClient via POST /v1/replicate/promote:
// the remote applier stops pulling and its write endpoints open, so the
// same base URL now serves as the member's mutable client.
func (s *HTTPShard) Promote(ctx context.Context) (MutableShardClient, error) {
	var st replica.Status
	if err := s.post(ctx, "/v1/replicate/promote", struct{}{}, &st); err != nil {
		return nil, err
	}
	return s, nil
}

// followerProbe is one follower's answer to a probe: its replication status,
// with ok false when it did not answer within the shard timeout.
type followerProbe struct {
	replica.Status
	ok bool
}

// live reports a follower that answered and is caught up.
func (p followerProbe) live() bool { return p.ok && p.State == replica.StateLive }

// probe asks every follower in fols for its replication status at once, each
// ask bounded by the shard timeout, so hung followers cost one timeout, not
// one each. It is the coordinator's only status read of a follower: epoch
// installs, promotion and Status all go through it.
func (w *Coordinator) probe(ctx context.Context, fols []FollowerClient) []followerProbe {
	out := make([]followerProbe, len(fols))
	var wg sync.WaitGroup
	for i, f := range fols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
			defer cancel()
			st, err := f.ReplicaStatus(fctx)
			out[i] = followerProbe{st, err == nil}
		}()
	}
	wg.Wait()
	return out
}

// refreshFollowers rewrites member mb's replica set from the probes of its
// attached followers (role from catch-up state, acked-seq watermark from the
// fence) and returns the caught-up ones as read failover targets. Followers
// that did not answer stay recorded as catching-up so the topology is never
// silently forgotten.
func refreshFollowers(mb *shard.Member, fols []FollowerClient, probes []followerProbe) []ShardClient {
	reps := make([]shard.Replica, len(fols))
	var live []ShardClient
	for i, p := range probes {
		reps[i] = shard.Replica{Name: fols[i].Name(), Role: shard.RoleCatchingUp, AckedSeq: p.Fence}
		if p.live() {
			reps[i].Role = shard.RoleFollower
			live = append(live, fols[i])
		}
	}
	mb.Replicas = reps
	return live
}

// promoteLocked replaces member id's client with its most caught-up live
// follower, the one with the highest fence, so no write a sibling follower
// already holds is lost: the follower is promoted (it stops pulling and
// opens writes), the manifest applies the promotion (member keeps its ID —
// gid lineage and routing survive — and takes the follower's name,
// epoch+1), and the new membership is stored. The member's other followers
// pull from the leader that was replaced, so they miss every write the
// promoted one takes: they are detached — no longer hedge, retry or
// promotion targets — and the manifest keeps them as catching-up, so the
// topology is not forgotten. Callers hold w.mu and the odd-generation
// window; the snapshot is stored directly and the caller's increment
// publishes it.
func (w *Coordinator) promoteLocked(ctx context.Context, id uint64) error {
	ep := w.ep.Load()
	mb := ep.man.Member(id)
	if mb == nil {
		return fmt.Errorf("cluster: promotion target member %d not in manifest", id)
	}
	fols := w.followers[id]
	probes := w.probe(ctx, fols)
	best := -1
	for i, p := range probes {
		if p.live() && (best < 0 || p.Fence > probes[best].Fence) {
			best = i
		}
	}
	if best < 0 {
		return fmt.Errorf("cluster: member %d (%s) has no caught-up follower to promote", id, mb.Name)
	}
	chosen := fols[best]
	client, err := chosen.Promote(ctx)
	if err != nil {
		return fmt.Errorf("cluster: promoting follower %s of member %d: %w", chosen.Name(), id, err)
	}
	// The manifest's recorded replica set may lag the probe we just made (or
	// miss the follower entirely after a resume): record the member's
	// followers as the probe found them before applying the promotion rule.
	man1 := ep.man.Clone()
	refreshFollowers(man1.Member(id), fols, probes)
	man2, err := man1.ApplyPromotion(id, chosen.Name())
	if err != nil {
		return err
	}
	for i := range man2.Member(id).Replicas {
		man2.Member(id).Replicas[i].Role = shard.RoleCatchingUp
	}
	clients2 := make(map[uint64]MutableShardClient, len(ep.clients))
	for cid, c := range ep.clients {
		clients2[cid] = c
	}
	clients2[id] = client
	delete(w.followers, id)
	ep2, err := w.newEpoch(ctx, man2, clients2, true)
	if err != nil {
		return err
	}
	ep2.promotions++
	w.ep.Store(ep2)
	return w.persist(man2)
}

// failoverLocked recovers from losing member id: promote a caught-up
// follower into its place when one exists, quarantine the member
// otherwise (dropping its client so answers that would need its unknown
// contents are flagged partial). Callers hold w.mu and the odd-generation
// window.
func (w *Coordinator) failoverLocked(ctx context.Context, id uint64) error {
	if err := w.promoteLocked(ctx, id); err == nil {
		return nil
	}
	return w.quarantineLocked(ctx, id)
}

// Promote forces a leader failover of the given member onto one of its
// caught-up followers (operational use; the write path and the split
// orchestrator invoke the same transition automatically when a member
// dies).
func (w *Coordinator) Promote(ctx context.Context, memberID uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen.Add(1)
	defer w.gen.Add(1)
	return w.promoteLocked(ctx, memberID)
}

// FollowerStatus is one follower's row under its member in Status.
type FollowerStatus struct {
	Name string `json:"name"`
	// State is the follower's state ("snapshot", "live"), or "unreachable"
	// when its status probe failed, or a manifest-recorded role
	// ("follower", "catching-up") for followers with no attached client.
	State string `json:"state"`
	// AckedSeq is the follower's replication watermark (highest leader
	// seq applied).
	AckedSeq uint64 `json:"acked_seq"`
	// Lag is the leader-seq minus applied-seq distance at the follower's
	// last completed pull.
	Lag uint64 `json:"lag"`
}
