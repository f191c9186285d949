// The write path of the coordinator: it owns dynamic membership and routes
// the WRITE path — inserts and deletes travel through an
// epoch-versioned shard.Manifest to the owning member, and a member whose
// weight mass outgrows its peers is split, shipping half its points to a
// freshly spawned member as a standard engine persistence stream.
//
// Reads scatter over one immutable epoch (coordinator.go), swapped in
// atomically. A seqlock-style generation counter brackets membership
// changes so a query that straddles one (and could therefore mix
// pre-split and post-split shard snapshots into one sum) is detected and
// re-scattered against the new membership instead of returning a
// silently incomplete answer. Crucially the counter goes odd BEFORE the
// destructive step of a split — the SplitOut that drops the moved half
// from the source shard — and even only once the new membership is
// published, so reads hold (or re-scatter) across the entire window in
// which the moved mass is in flight and owned by no queryable member.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"

	"karl"
	"karl/internal/shard"
)

// errRejected marks a shard request the shard refused before any side
// effect (validation failure, 4xx). Its absence from a failed split makes
// the failure ambiguous — the shard may or may not have applied it.
var errRejected = errors.New("cluster: request rejected by shard")

// ErrEpochChanged reports a query that straddled repeated membership
// changes: every re-scatter attempt saw the manifest epoch advance under
// it. The caller may simply retry.
var ErrEpochChanged = errors.New("cluster: membership changed during query")

// gidSeqBits splits a cluster-global point id into (member, sequence):
// the high 16 bits carry the member id, the low 48 the engine-local
// sequence number the member assigned.
const gidSeqBits = 48

// EncodeID packs a member id and an engine-local point id into one
// cluster-global id.
func EncodeID(member, seq uint64) (uint64, error) {
	if member == 0 || member >= 1<<(64-gidSeqBits) {
		return 0, fmt.Errorf("cluster: member id %d outside [1,%d)", member, 1<<(64-gidSeqBits))
	}
	if seq >= 1<<gidSeqBits {
		return 0, fmt.Errorf("cluster: local point id %d overflows %d bits", seq, gidSeqBits)
	}
	return member<<gidSeqBits | seq, nil
}

// DecodeID unpacks a cluster-global point id.
func DecodeID(gid uint64) (member, seq uint64) {
	return gid >> gidSeqBits, gid & (1<<gidSeqBits - 1)
}

// SpawnFunc creates the engine/serving backend for a freshly split-off
// member and returns its client. moved is the new member's dataset as an
// engine persistence stream (karl.ReadEngine decodes it). A SpawnFunc
// failure does not abort the split — the points already left the source —
// so the member is recorded in the manifest as unreachable and queries
// degrade to the partial/indeterminate contract until the operator
// recovers it from the persisted stream.
type SpawnFunc func(ctx context.Context, member shard.Member, moved []byte) (MutableShardClient, error)

// WritableConfig tunes the coordinator's write path on top of the read
// Config. The zero value picks production defaults.
type WritableConfig struct {
	Config
	// SplitFactor triggers an automatic split when a member's live weight
	// mass exceeds this multiple of the mean mass of its peers (default 4).
	// A single-member cluster always qualifies once it reaches
	// MinSplitPoints.
	SplitFactor float64
	// MinSplitPoints is the minimum cardinality before a member may split
	// (default 256) — splitting tiny shards buys nothing.
	MinSplitPoints int
	// ManifestPath, when non-empty, persists the manifest after every
	// membership change (atomic temp+rename). A file already holding an
	// epoch at or ahead of the one being written is rejected with
	// shard.ErrStaleManifest — two coordinators fighting over one path.
	ManifestPath string
	// SplitCheckEvery throttles the automatic split trigger: the probe
	// (one Info round trip per member, serialized under the write lock)
	// runs only after this many points have been inserted since the last
	// probe — running it on every Insert would put N network round trips
	// on every write. Default MinSplitPoints/4.
	SplitCheckEvery int
}

const (
	// maxShards caps membership growth (hash routing is additionally
	// capped by the slot space).
	maxShards = 16
	// epochRetries bounds how often a query is re-scattered after
	// straddling a membership change before ErrEpochChanged.
	epochRetries = 2
)

func (c WritableConfig) withDefaults() WritableConfig {
	c.Config = c.Config.withDefaults()
	if c.SplitFactor <= 0 {
		c.SplitFactor = 4
	}
	if c.MinSplitPoints <= 0 {
		c.MinSplitPoints = 256
	}
	if c.SplitCheckEvery <= 0 {
		c.SplitCheckEvery = c.MinSplitPoints / 4
		if c.SplitCheckEvery < 1 {
			c.SplitCheckEvery = 1
		}
	}
	return c
}

// WritableShard names one founding member of a cluster.
type WritableShard struct {
	Name   string
	Client MutableShardClient
	// Followers are replication followers attached to this member: read
	// hedge/failover targets while the member is healthy, promotion
	// candidates when it dies. The caller owns their catch-up loops.
	Followers []FollowerClient
}

// NewWritable founds a cluster over the given members with routing kind
// `kind` (hash slots, or a kd tree which must start from exactly one member
// and grows by splits). A nil spawn disables splitting entirely — automatic
// and forced. Whether the cluster takes writes is decided where it is served
// (NewWritableHTTPServer or NewHTTPServer): a read-only cluster is founded the
// same way, over members that mount no write routes.
func NewWritable(ctx context.Context, kind shard.Kind, shards []WritableShard, spawn SpawnFunc, cfg WritableConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	members := make([]shard.Member, len(shards))
	clients := make(map[uint64]MutableShardClient, len(shards))
	followers := map[uint64][]FollowerClient{}
	for i, sp := range shards {
		if sp.Client == nil {
			return nil, fmt.Errorf("cluster: founding shard %d has no client", i)
		}
		id := uint64(i + 1)
		name := sp.Name
		if name == "" {
			name = sp.Client.Name()
		}
		members[i] = shard.Member{ID: id, Name: name}
		clients[id] = sp.Client
		if len(sp.Followers) > 0 {
			followers[id] = append([]FollowerClient(nil), sp.Followers...)
		}
	}
	man, err := shard.NewManifest(kind, members)
	if err != nil {
		return nil, err
	}
	w := &Coordinator{cfg: cfg, spawn: spawn, nextID: uint64(len(shards) + 1), followers: followers, states: map[uint64]*memberState{}}
	ep, err := w.newEpoch(ctx, man, clients, false)
	if err != nil {
		return nil, err
	}
	w.ep.Store(ep)
	if err := w.persist(man); err != nil {
		return nil, err
	}
	return w, nil
}

// ResumeWritable restarts a coordinator over a previously persisted
// manifest (LoadManifest): membership, routing, lineage and the epoch all
// come from the manifest, so cluster-global ids handed out before the
// restart keep resolving. shards supplies clients for the members that
// are reachable again, matched to manifest members by name (karl-serve
// uses the shard base URL as the name, so the same -shards list
// re-attaches). A member with no matching client — or whose client does
// not answer — serves as an unreachable stub: its weight mass stays in
// the coverage denominator, so answers degrade to the explicit partial
// contract until the operator restores it. A shard whose name matches no
// manifest member is rejected loudly: it belongs to a different cluster.
//
// Nothing is persisted at resume time — the manifest on disk already
// carries this epoch, and persist refuses epoch regressions; the next
// membership change writes epoch+1 as usual.
func ResumeWritable(ctx context.Context, man *shard.Manifest, shards []WritableShard, spawn SpawnFunc, cfg WritableConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	byName := make(map[string]uint64, len(man.Members))
	dup := map[string]bool{}
	next := uint64(1)
	for _, mb := range man.Members {
		if _, seen := byName[mb.Name]; seen {
			dup[mb.Name] = true
		}
		byName[mb.Name] = mb.ID
		if mb.ID >= next {
			next = mb.ID + 1
		}
	}
	clients := make(map[uint64]MutableShardClient, len(shards))
	followers := map[uint64][]FollowerClient{}
	for i, sp := range shards {
		if sp.Client == nil {
			return nil, fmt.Errorf("cluster: resumed shard %d has no client", i)
		}
		name := sp.Name
		if name == "" {
			name = sp.Client.Name()
		}
		id, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("cluster: shard %q does not appear in manifest epoch %d", name, man.Epoch)
		}
		if dup[name] {
			return nil, fmt.Errorf("cluster: manifest has several members named %q; cannot match a client unambiguously", name)
		}
		if clients[id] != nil {
			return nil, fmt.Errorf("cluster: duplicate client for member %q", name)
		}
		clients[id] = sp.Client
		if len(sp.Followers) > 0 {
			followers[id] = append([]FollowerClient(nil), sp.Followers...)
		}
	}
	w := &Coordinator{cfg: cfg, spawn: spawn, nextID: next, followers: followers, states: map[uint64]*memberState{}}
	ep, err := w.newEpoch(ctx, man.Clone(), clients, true)
	if err != nil {
		return nil, err
	}
	w.ep.Store(ep)
	return w, nil
}

// newEpoch assembles one epoch over man in a single discovery round: every
// member at once is asked for its Info (and its followers for their
// replication status), the manifest's advisory member stats are refreshed
// from the answers, and each member is handed its memberState from the
// coordinator — created on first sight, carried from epoch to epoch after
// that. The dataset identity comes from the first member that holds a point:
// a member still empty has no dimensionality yet (a cluster founded over
// empty members fills them one routed insert at a time).
//
// In strict mode (founding) a client that does not answer its Info probe
// fails the whole construction — an operator error worth surfacing before
// serving anything. In lenient mode (epoch installs while the cluster is
// live, and resume) the member is read through a down stub instead, so the
// install always goes through — critical after a split, where failing to
// install would leave reads running against a source shard that already
// dropped the moved half. Its info is then the manifest's advisory masses,
// which keeps the member's mass in the weight total: every answer that
// misses it is flagged partial with honest coverage, never silently
// complete. The client itself stays in the map: the outage may be
// transient, and writes plus the next epoch will re-probe it.
//
// Called with w.mu held or during construction; man is the caller's own copy.
func (w *Coordinator) newEpoch(ctx context.Context, man *shard.Manifest, clients map[uint64]MutableShardClient, lenient bool) (*epoch, error) {
	ep := &epoch{co: w, man: man, clients: clients, members: make([]*member, len(man.Members))}
	errs := make([]error, len(man.Members))
	var wg sync.WaitGroup
	for i := range man.Members {
		mb := &man.Members[i]
		if w.states[mb.ID] == nil {
			w.states[mb.ID] = new(memberState)
		}
		m := &member{client: downShard(mb.Name), memberState: w.states[mb.ID]}
		ep.members[i] = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Caught-up followers are the member's read hedge targets while
			// the leader answers, its read failover when it doesn't.
			m.replicas = w.refreshFollowers(ctx, mb)
			c := clients[mb.ID]
			if c == nil {
				return
			}
			ictx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
			info, err := c.Info(ictx)
			cancel()
			if err != nil {
				errs[i] = fmt.Errorf("cluster: member %d (%s): %w", mb.ID, c.Name(), err)
				return
			}
			mb.Points, mb.WPos, mb.WNeg = info.Points, info.WPos, info.WNeg
			m.client = c
			m.info.Store(&info)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil && !lenient {
		return nil, fmt.Errorf("cluster: shard discovery failed: %w", err)
	}

	var first *ShardInfo
	for _, m := range ep.members {
		if info := m.info.Load(); info != nil && (first == nil || first.Dims == 0 && info.Dims != 0) {
			first = info
		}
	}
	if first != nil {
		ep.dims, ep.kernel, ep.gamma = first.Dims, first.Kernel, first.Gamma
	}
	ep.klo, ep.khi = kernelRange(ep.kernel)
	for i, m := range ep.members {
		info := m.info.Load()
		if info == nil {
			mb := man.Members[i]
			m.info.Store(&ShardInfo{Points: mb.Points, Dims: ep.dims, Kernel: ep.kernel, Gamma: ep.gamma, WPos: mb.WPos, WNeg: mb.WNeg})
			continue
		}
		if info.Kernel != ep.kernel || info.Gamma != ep.gamma || info.Dims != 0 && info.Dims != ep.dims {
			return nil, fmt.Errorf(
				"cluster: shard %s serves (%s γ=%v, %dd), want (%s γ=%v, %dd): shards must hold one partitioned dataset",
				m.client.Name(), info.Kernel, info.Gamma, info.Dims, ep.kernel, ep.gamma, ep.dims)
		}
	}
	return ep, nil
}

// downShard is the read client of a member that is recorded in the manifest
// but has no reachable engine (spawn failed, it was quarantined after an
// ambiguous split, or it did not answer the epoch's discovery round): the
// member's manifest name, and every call fails.
type downShard string

func (d downShard) Name() string { return string(d) }
func (d downShard) err() error   { return fmt.Errorf("cluster: member %s is unreachable", string(d)) }

func (d downShard) Info(context.Context) (ShardInfo, error)               { return ShardInfo{}, d.err() }
func (d downShard) Healthy(context.Context) error                         { return d.err() }
func (d downShard) Aggregate(context.Context, []float64) (float64, error) { return 0, d.err() }
func (d downShard) Bounds(context.Context, []float64, float64) (Bounds, error) {
	return Bounds{}, d.err()
}
func (d downShard) ThresholdBounds(context.Context, []float64, float64) (Bounds, error) {
	return Bounds{}, d.err()
}

// install publishes a new epoch under the seqlock: gen goes odd, the
// snapshot swaps, gen goes even. Callers hold w.mu and must NOT already
// hold the generation odd (splitLocked brackets the whole split itself and
// stores the snapshot directly).
func (w *Coordinator) install(ep *epoch) {
	w.gen.Add(1) // odd: queries in flight will re-scatter
	w.ep.Store(ep)
	w.gen.Add(1) // even again
}

// persist writes the manifest to the configured path (temp file, synced,
// then renamed over the live one, so a crash leaves the old manifest or the
// new one, never a torn one), refusing to regress an epoch already on disk.
func (w *Coordinator) persist(man *shard.Manifest) error {
	if w.cfg.ManifestPath == "" {
		return nil
	}
	if prev, err := LoadManifest(w.cfg.ManifestPath); err == nil && man.Epoch <= prev.Epoch {
		return fmt.Errorf("%w: disk has epoch %d, refusing to write epoch %d",
			shard.ErrStaleManifest, prev.Epoch, man.Epoch)
	}
	tmp := w.cfg.ManifestPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cluster: persisting manifest: %w", err)
	}
	_, err = man.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: persisting manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: persisting manifest: %w", err)
	}
	if err := os.Rename(tmp, w.cfg.ManifestPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: persisting manifest: %w", err)
	}
	return nil
}

// LoadManifest reads and validates a persisted cluster manifest.
func LoadManifest(path string) (*shard.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return shard.ReadManifest(f)
}

// Splits returns how many shard splits have completed.
func (w *Coordinator) Splits() int64 { return w.splits.Load() }

// Insert routes points to their owning members via the manifest and
// returns cluster-global ids (member ⊕ engine-local id), in input order.
// Inserts are serialized with membership changes; per-member batches are
// all-or-nothing but the cross-member request is not transactional. On a
// mid-batch failure the error names how many points already landed AND
// the returned slice still carries their ids: entries are non-zero
// exactly for the points that landed (0 is never a valid cluster id —
// member ids start at 1), so the caller can delete the orphans or skip
// them on a retry instead of duplicating them. A successful insert may
// trigger an automatic shard split (spawn configured, weight imbalance
// over SplitFactor, probed once every SplitCheckEvery inserted points);
// split failures never fail the insert. Before returning — also on a
// mid-batch failure — the epoch's weight masses of every member that
// acknowledged points are refreshed (refreshMassLocked).
func (w *Coordinator) Insert(ctx context.Context, points [][]float64, weights []float64) ([]uint64, error) {
	if len(points) == 0 {
		return nil, errors.New("cluster: empty insert")
	}
	if weights != nil && len(weights) != len(points) {
		return nil, fmt.Errorf("cluster: %d weights for %d points", len(weights), len(points))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ep := w.ep.Load()
	var touched []uint64 // members that acknowledged points of this call
	defer func() { w.refreshMassLocked(touched) }()

	// Group per owning member, preserving input order within each group.
	groups := map[uint64][]int{}
	var order []uint64
	for i, p := range points {
		id := ep.man.Route(p)
		if _, seen := groups[id]; !seen {
			order = append(order, id)
		}
		groups[id] = append(groups[id], i)
	}
	ids := make([]uint64, len(points))
	landed := 0
	// partial reports the ids assigned so far alongside a mid-batch error
	// (nil when nothing landed — there are no orphans to report).
	partial := func() []uint64 {
		if landed == 0 {
			return nil
		}
		return ids
	}
	for _, mid := range order {
		idxs := groups[mid]
		c := ep.clients[mid]
		if c == nil {
			return partial(), fmt.Errorf("cluster: member %d (%s) is unreachable (%d of %d points landed; non-zero returned ids name them)",
				mid, ep.man.Member(mid).Name, landed, len(points))
		}
		pts := make([][]float64, len(idxs))
		var ws []float64
		if weights != nil {
			ws = make([]float64, len(idxs))
		}
		for j, i := range idxs {
			pts[j] = points[i]
			if weights != nil {
				ws[j] = weights[i]
			}
		}
		local, err := c.Insert(ctx, pts, ws)
		if err != nil && !errors.Is(err, errRejected) {
			// The member may be dead rather than refusing. Probe it, and
			// when it is gone promote a caught-up follower into its place
			// (same member id — routing and gid lineage are untouched) and
			// retry this group once on the promoted client. A batch that
			// landed just before the member died can have replicated and
			// then be duplicated by the retry — the window is narrow (the
			// health probe must also fail) and within the documented
			// non-transactional insert contract.
			hctx, hcancel := context.WithTimeout(ctx, w.cfg.Timeout)
			herr := c.Healthy(hctx)
			hcancel()
			if herr != nil {
				w.gen.Add(1)
				perr := w.promoteLocked(ctx, mid)
				w.gen.Add(1)
				if perr == nil {
					ep = w.ep.Load()
					if c2 := ep.clients[mid]; c2 != nil {
						c = c2
						local, err = c.Insert(ctx, pts, ws)
					}
				}
			}
		}
		if err != nil {
			return partial(), fmt.Errorf("cluster: member %d (%s): %w (%d of %d points landed; non-zero returned ids name them)",
				mid, c.Name(), err, landed, len(points))
		}
		if len(local) != len(idxs) {
			return partial(), fmt.Errorf("cluster: member %d returned %d ids for %d points (%d of %d points landed; non-zero returned ids name them)",
				mid, len(local), len(idxs), landed, len(points))
		}
		touched = append(touched, mid)
		for j, i := range idxs {
			gid, err := EncodeID(mid, local[j])
			if err != nil {
				return partial(), err
			}
			ids[i] = gid
			landed++
		}
	}
	if ep.dims == 0 {
		// The founding members were empty and the epoch pinned dims at 0.
		// Install one that knows the dataset's dimensionality.
		ep2, err := w.newEpoch(ctx, ep.man.Clone(), ep.clients, true)
		if err != nil {
			return ids, fmt.Errorf("cluster: all %d points landed, but reads stay refused: installing an epoch with the dataset's dimensionality: %w", len(points), err)
		}
		w.install(ep2)
	}
	w.sinceProbe += len(points)
	if w.sinceProbe >= w.cfg.SplitCheckEvery {
		w.sinceProbe = 0
		w.maybeSplitLocked(ctx)
	}
	return ids, nil
}

// refreshMassLocked installs, for every listed member, the cardinality and
// weight masses its latest write reply carried (WriteMass) in the current
// epoch, so the a-priori clamp [klo·W_S, khi·W_S] that every
// Threshold/Approximate exchange starts from tracks the shard's true mass.
// Without it the masses stay at their discovery-round values (the first
// insert's, for a cluster founded empty) and a shard holding more mass than
// recorded is clamped below its true contribution — a silently wrong eKAQ.
// The masses ride on the write's own reply: no round trip is made here,
// and reads pay nothing. A client with no write reply yet keeps the old
// masses. Called with w.mu held.
func (w *Coordinator) refreshMassLocked(members []uint64) {
	ep := w.ep.Load()
	for i := range ep.man.Members {
		id := ep.man.Members[i].ID
		c := ep.clients[id]
		if c == nil || !slices.Contains(members, id) {
			continue
		}
		if mass, ok := c.WriteMass(); ok {
			ep.setMass(i, mass) // members are in manifest order
		}
	}
}

// Delete removes the point with the given cluster-global id. The id
// routes to the member that assigned it; if that member no longer holds
// the point, the delete chases the split lineage — only descendants whose
// BaseSeq fence admits the sequence number can have inherited it, so a
// fresh point with a recycled-looking id on an unrelated member is never
// touched.
func (w *Coordinator) Delete(ctx context.Context, gid uint64) error {
	_, err := w.DeleteMany(ctx, []uint64{gid})
	return err
}

// DeleteError is the error of a DeleteMany that stopped early: the
// cluster-global id it stopped at and why. errors.Is/As see through it.
type DeleteError struct {
	ID  uint64
	Err error
}

func (e *DeleteError) Error() string { return fmt.Sprintf("id %d: %v", e.ID, e.Err) }
func (e *DeleteError) Unwrap() error { return e.Err }

// DeleteMany deletes the given points under one write-lock hold with one
// shard call per owning member: ids are grouped by the member that
// assigned them (groups in first-appearance order, ids in input order
// within a group) and each group travels as one bulk delete. An id its
// member reports missing falls back to the per-id lineage chase
// (deleteLocked) — a split may have moved it — and the rest of the group
// follows in a further bulk call. The first id that cannot be deleted stops
// the request: the returned count says how many points were removed, which
// under this order are not a prefix of gids, and the error is a
// *DeleteError naming the id (after a transport failure, which carries no
// count from the shard, the first id of the batch that was in flight).
// Members that lost points have their weight masses refreshed in the epoch
// once per call (refreshMassLocked).
func (w *Coordinator) DeleteMany(ctx context.Context, gids []uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var touched []uint64 // members that lost a point in this call
	defer func() { w.refreshMassLocked(touched) }()

	groups := map[uint64][]uint64{} // member → its gids, in input order
	var order []uint64
	for _, gid := range gids {
		mid, _ := DecodeID(gid)
		if _, seen := groups[mid]; !seen {
			order = append(order, mid)
		}
		groups[mid] = append(groups[mid], gid)
	}
	deleted := 0
	for _, mid := range order {
		group := groups[mid]
		seqs := make([]uint64, len(group))
		for i, gid := range group {
			_, seqs[i] = DecodeID(gid)
		}
		c := w.ep.Load().clients[mid]
		for len(group) > 0 {
			n := 0
			err := karl.ErrPointNotFound // no client to ask: chase
			if c != nil {
				n, err = c.DeleteMany(ctx, seqs)
			}
			if n > 0 {
				touched = append(touched, mid)
				deleted += n
			}
			if err == nil {
				break
			}
			if !errors.Is(err, karl.ErrPointNotFound) {
				return deleted, &DeleteError{ID: group[n], Err: err}
			}
			// group[n] is not (or no longer) on the member that assigned it.
			holder, err := w.deleteLocked(ctx, group[n], c != nil)
			if err != nil {
				return deleted, &DeleteError{ID: group[n], Err: err}
			}
			touched = append(touched, holder)
			deleted++
			group, seqs = group[n+1:], seqs[n+1:]
		}
	}
	return deleted, nil
}

// deleteLocked removes one point by chasing its split lineage and names
// the member that held it. ownerMissed says the member that assigned the
// id has just reported it missing, so the chase starts at its descendants.
func (w *Coordinator) deleteLocked(ctx context.Context, gid uint64, ownerMissed bool) (uint64, error) {
	mid, seq := DecodeID(gid)
	ep := w.ep.Load()
	if ep.man.Member(mid) == nil {
		return 0, fmt.Errorf("cluster: point %d names unknown member %d: %w", gid, mid, karl.ErrPointNotFound)
	}
	candidates := lineageCandidates(ep.man, mid, seq)
	if ownerMissed {
		candidates = candidates[1:]
	}
	unreachable := false
	for _, cand := range candidates {
		c := ep.clients[cand]
		if c == nil {
			unreachable = true
			continue
		}
		err := c.Delete(ctx, seq)
		if err == nil {
			return cand, nil
		}
		if !errors.Is(err, karl.ErrPointNotFound) {
			return 0, err
		}
	}
	if unreachable {
		return 0, fmt.Errorf("cluster: point %d may live on an unreachable member: %w", gid, ErrUnavailable)
	}
	return 0, fmt.Errorf("cluster: point %d: %w", gid, karl.ErrPointNotFound)
}

// lineageCandidates returns the members that could hold the point
// (member mid, sequence seq), starting with mid itself and following
// split lineage: a descendant can only have inherited the point if it
// split off after the point existed, i.e. seq < descendant.BaseSeq.
func lineageCandidates(man *shard.Manifest, mid, seq uint64) []uint64 {
	out := []uint64{mid}
	in := map[uint64]bool{mid: true}
	// Members are appended in split order, so one forward pass reaches
	// descendants before their own descendants.
	for _, mb := range man.Members {
		if !in[mb.ID] && in[mb.Parent] && seq < mb.BaseSeq {
			in[mb.ID] = true
			out = append(out, mb.ID)
		}
	}
	return out
}

// maybeSplitLocked runs the automatic split trigger: the heaviest member
// splits when its live weight mass exceeds SplitFactor times the mean of
// its peers (a lone member always qualifies), it holds at least
// MinSplitPoints points, and the membership has room. Failures are
// swallowed — splitting is maintenance, not a write-path obligation. The
// probe costs one Info round trip per member under the write lock, so
// the insert path invokes it only once every SplitCheckEvery inserted
// points rather than on every call.
func (w *Coordinator) maybeSplitLocked(ctx context.Context) {
	if w.spawn == nil {
		return
	}
	ep := w.ep.Load()
	if len(ep.man.Members) >= maxShards {
		return
	}
	var heavy uint64
	var heavyW, totalW float64
	heavyPts, alive := 0, 0
	for id, c := range ep.clients {
		ictx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
		info, err := c.Info(ictx)
		cancel()
		if err != nil {
			continue
		}
		alive++
		wgt := info.Weight()
		totalW += wgt
		if heavy == 0 || wgt > heavyW {
			heavy, heavyW, heavyPts = id, wgt, info.Points
		}
	}
	if heavy == 0 || heavyPts < w.cfg.MinSplitPoints {
		return
	}
	if alive > 1 {
		peerMean := (totalW - heavyW) / float64(alive-1)
		if heavyW <= w.cfg.SplitFactor*peerMean {
			return
		}
	}
	_ = w.splitLocked(ctx, heavy)
}

// Split forces a split of the given member (tests, operational
// rebalancing). It respects maxShards but not the weight trigger.
func (w *Coordinator) Split(ctx context.Context, memberID uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ep.Load().man.Members) >= maxShards {
		return fmt.Errorf("cluster: membership already at its cap (%d)", maxShards)
	}
	return w.splitLocked(ctx, memberID)
}

// splitLocked executes one shard split under w.mu:
//
//  1. derive the split rule (move half the member's hash slots, or let a
//     kd member choose its own balanced plane),
//  2. SplitOut — the member atomically extracts the moving half and ships
//     it back as a persistence stream,
//  3. spawn the new member's engine from the stream,
//  4. apply the rule to the manifest (epoch+1, lineage recorded) and
//     install the new membership.
//
// A clean shard-side refusal (errRejected) aborts with nothing changed.
// An ambiguous failure — the split may or may not have been applied, but
// the moved half is not in hand — quarantines the source member: its
// client is dropped so every future answer that would need its (now
// unknowable) contents is flagged partial/indeterminate instead of being
// silently wrong. A spawn failure records the new member as unreachable
// for the same reason; its dataset survives in the persisted stream the
// spawner received.
//
// The generation counter goes odd immediately before SplitOut and even
// only on return: from the instant the source shard drops the moved half
// until the post-split membership is published, the moved mass belongs to
// no queryable member, so a read that ran to completion inside that
// window would return a silently reduced sum. Holding the seqlock odd
// makes such reads wait (snapshot polls, bounded by their context) and
// makes reads that started earlier re-scatter — the window can span
// spawn/Info round trips, trading read latency during a split for the
// never-silently-wrong contract.
func (w *Coordinator) splitLocked(ctx context.Context, srcID uint64) error {
	if w.spawn == nil {
		return errors.New("cluster: no spawner configured")
	}
	ep := w.ep.Load()
	src := ep.clients[srcID]
	if src == nil {
		return fmt.Errorf("cluster: member %d has no reachable client", srcID)
	}
	var rule shard.SplitRule
	auto := false
	switch ep.man.Kind {
	case shard.Hash:
		slots := ep.man.MemberSlots(srcID)
		if len(slots) < 2 {
			return fmt.Errorf("cluster: member %d owns %d hash slots, cannot split", srcID, len(slots))
		}
		rule = shard.SplitRule{Kind: shard.Hash, NumSlots: ep.man.NumSlots, Slots: slots[len(slots)/2:]}
	case shard.KDSplit:
		rule = shard.SplitRule{Kind: shard.KDSplit}
		auto = true
	default:
		return fmt.Errorf("cluster: unknown routing kind %v", ep.man.Kind)
	}

	// Destructive step ahead: seqlock odd across the whole split so no
	// read completes against the half-moved state (see the doc comment).
	w.gen.Add(1)
	defer w.gen.Add(1)

	res, err := src.SplitOut(ctx, rule, auto)
	if err != nil {
		if errors.Is(err, errRejected) {
			return err // clean refusal: nothing moved, membership unchanged
		}
		return errors.Join(err, w.failoverLocked(ctx, srcID))
	}

	newID := w.nextID
	w.nextID++
	member := shard.Member{
		ID:      newID,
		Name:    fmt.Sprintf("%s/split-%d", src.Name(), newID),
		BaseSeq: res.Fence,
		Points:  res.Points,
		WPos:    res.WPos,
		WNeg:    res.WNeg,
	}
	man2, err := ep.man.ApplySplit(srcID, member, res.Rule)
	if err != nil {
		// The points already left the source; failing over (or
		// quarantining) it keeps the accounting honest even on this
		// (programmer-error) path.
		return errors.Join(err, w.failoverLocked(ctx, srcID))
	}
	clients2 := make(map[uint64]MutableShardClient, len(ep.clients)+1)
	for id, c := range ep.clients {
		clients2[id] = c
	}
	var spawnErr error
	if client, err := w.spawn(ctx, member, res.Moved); err != nil {
		spawnErr = fmt.Errorf("cluster: spawning member %d: %w", newID, err)
	} else {
		clients2[newID] = client
		// A process spawner only learns the child's address after it
		// starts, so the placeholder name chosen above may not be the
		// one the client answers to. The manifest must record the
		// client's own name — ResumeWritable re-attaches members by
		// name (karl-serve uses the base URL), and a name the spawner
		// invented would orphan the member on the next restart.
		if n := client.Name(); n != "" && n != member.Name {
			man2.Member(newID).Name = n
		}
	}
	// Lenient build: a member that does not answer its Info probe is
	// served as a down stub rather than failing the install — aborting
	// here would leave reads on a membership whose source shard already
	// dropped the moved half.
	ep2, err := w.newEpoch(ctx, man2, clients2, true)
	if err != nil {
		return errors.Join(spawnErr, err)
	}
	// Published inside the odd-generation window splitLocked holds; the
	// deferred increment makes it visible to waiting reads.
	w.ep.Store(ep2)
	w.splits.Add(1)
	if err := w.persist(man2); err != nil {
		return errors.Join(spawnErr, err)
	}
	return spawnErr
}

// quarantineLocked drops a member's client after an ambiguous failure:
// the member stays in the manifest (mass accounted, routing unchanged)
// but is treated as unreachable, and the epoch advances so in-flight
// queries re-scatter onto the degraded membership. Callers hold both
// w.mu and the odd-generation window of splitLocked, so the snapshot is
// stored directly — the caller's deferred increment publishes it.
func (w *Coordinator) quarantineLocked(ctx context.Context, id uint64) error {
	ep := w.ep.Load()
	clients2 := make(map[uint64]MutableShardClient, len(ep.clients))
	for cid, c := range ep.clients {
		if cid != id {
			clients2[cid] = c
		}
	}
	man2 := ep.man.Clone()
	man2.Epoch++
	ep2, err := w.newEpoch(ctx, man2, clients2, true)
	if err != nil {
		return err
	}
	w.ep.Store(ep2)
	w.quarantines.Add(1)
	return w.persist(man2)
}
