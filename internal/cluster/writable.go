// The writable cluster: a coordinator that owns dynamic membership and
// routes the WRITE path — inserts and deletes travel through an
// epoch-versioned shard.Manifest to the owning member, and a member whose
// weight mass outgrows its peers is split, shipping half its points to a
// freshly spawned member as a standard engine persistence stream.
//
// Reads reuse the immutable Coordinator unchanged: every membership epoch
// owns one read coordinator over that epoch's client set, swapped in
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
	"sync/atomic"
	"time"

	"karl"
	"karl/internal/server"
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

// WritableConfig tunes the writable coordinator on top of the read
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

// WritableShard names one founding member of a writable cluster.
type WritableShard struct {
	Name   string
	Client MutableShardClient
	// Followers are replication followers attached to this member: read
	// hedge/failover targets while the member is healthy, promotion
	// candidates when it dies. The caller owns their catch-up loops.
	Followers []FollowerClient
}

// membership is one immutable epoch of the cluster: the routing manifest,
// the mutable clients by member id (absent entries are unreachable
// members), and a read coordinator built over exactly this client set.
type membership struct {
	man     *shard.Manifest
	clients map[uint64]MutableShardClient
	co      *Coordinator
}

// WritableCoordinator routes writes through a dynamic manifest and serves
// reads through the current epoch's Coordinator. Writes and membership
// changes serialize on mu; reads are lock-free against an atomic
// membership snapshot, guarded by the gen seqlock.
type WritableCoordinator struct {
	cfg   WritableConfig
	spawn SpawnFunc

	mu         sync.Mutex // serializes writes, splits, membership installs
	nextID     uint64     // next member id to assign
	sinceProbe int        // points inserted since the last split probe

	// followers maps member id to its attached replication followers
	// (guarded by mu; promotion moves a follower out of this map and into
	// the clients of the next membership).
	followers map[uint64][]FollowerClient

	// gen is even between membership changes and odd while one is in
	// flight; a query whose start and end generations differ (or that
	// starts on an odd one) re-scatters.
	gen atomic.Uint64
	mem atomic.Pointer[membership]

	splits      atomic.Int64
	rescatters  atomic.Int64
	promotions  atomic.Int64
	quarantines atomic.Int64
	// exch is shared by every epoch's read coordinator, so the query and
	// round counts in /v1/stats survive membership changes.
	exch exchangeCounters
}

// NewWritable founds a writable cluster over the given members with
// routing kind `kind` (hash slots, or a kd tree which must start from
// exactly one member and grows by splits). A nil spawn disables
// splitting entirely — automatic and forced.
func NewWritable(ctx context.Context, kind shard.Kind, shards []WritableShard, spawn SpawnFunc, cfg WritableConfig) (*WritableCoordinator, error) {
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
	w := &WritableCoordinator{cfg: cfg, spawn: spawn, nextID: uint64(len(shards) + 1), followers: followers}
	m, err := w.buildMembership(ctx, man, clients, false)
	if err != nil {
		return nil, err
	}
	w.mem.Store(m)
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
func ResumeWritable(ctx context.Context, man *shard.Manifest, shards []WritableShard, spawn SpawnFunc, cfg WritableConfig) (*WritableCoordinator, error) {
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
	w := &WritableCoordinator{cfg: cfg, spawn: spawn, nextID: next, followers: followers}
	m, err := w.buildMembership(ctx, man.Clone(), clients, true)
	if err != nil {
		return nil, err
	}
	w.mem.Store(m)
	return w, nil
}

// buildMembership assembles one epoch: advisory member stats refreshed
// from live Infos, a read coordinator over the client set (unreachable
// members get a down stub so their mass stays in the coverage
// denominator), and the clients map as given.
//
// In strict mode (founding) a client that does not answer its Info probe
// fails the whole construction — an operator error worth surfacing
// before serving anything. In lenient mode (membership installs while
// the cluster is live, and resume) the member is served to the read
// coordinator as a down stub instead, so the install always goes through
// — critical after a split, where failing to install would leave reads
// running against a source shard that already dropped the moved half.
// The client itself stays in the map: the outage may be transient, and
// writes plus the next membership build will re-probe it.
func (w *WritableCoordinator) buildMembership(ctx context.Context, man *shard.Manifest, clients map[uint64]MutableShardClient, lenient bool) (*membership, error) {
	// Refresh advisory stats and capture the dataset identity from any
	// live member, so down stubs present consistent Info.
	var proto ShardInfo
	infos := make(map[uint64]ShardInfo, len(clients))
	for id, c := range clients {
		ictx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
		info, err := c.Info(ictx)
		cancel()
		if err != nil {
			if lenient {
				continue // absent from infos: served as a down stub below
			}
			return nil, fmt.Errorf("cluster: member %d (%s): %w", id, c.Name(), err)
		}
		infos[id] = info
		if info.Dims != 0 {
			proto = info
		}
	}
	if proto.Kernel == "" {
		for _, info := range infos {
			proto = info
			break
		}
	}
	specs := make([]Shard, len(man.Members))
	for i := range man.Members {
		mb := &man.Members[i]
		// Caught-up followers join the member's replica list: read hedge
		// targets while the leader answers, read failover when it doesn't.
		live := w.refreshFollowers(ctx, mb)
		if info, ok := infos[mb.ID]; ok {
			mb.Points, mb.WPos, mb.WNeg = info.Points, info.WPos, info.WNeg
			specs[i] = Shard{Client: clients[mb.ID], Replicas: live}
			continue
		}
		// Unreachable member: a stub whose Info carries the manifest's
		// advisory masses keeps its mass in wTotal, so every answer that
		// misses it is flagged partial with honest coverage — never
		// silently complete.
		specs[i] = Shard{Client: downShard{name: mb.Name, info: ShardInfo{
			Points: mb.Points, Dims: proto.Dims, Kernel: proto.Kernel,
			Gamma: proto.Gamma, WPos: mb.WPos, WNeg: mb.WNeg,
		}}, Replicas: live}
	}
	co, err := New(ctx, specs, w.cfg.Config)
	if err != nil {
		return nil, err
	}
	co.exch = &w.exch
	return &membership{man: man, clients: clients, co: co}, nil
}

// downShard is the client stub for a member that is recorded in the
// manifest but has no reachable engine (spawn failed, or it was
// quarantined after an ambiguous split). Info answers from the advisory
// snapshot; everything else fails.
type downShard struct {
	name string
	info ShardInfo
}

func (d downShard) Name() string { return d.name }
func (d downShard) Info(ctx context.Context) (ShardInfo, error) {
	if err := ctx.Err(); err != nil {
		return ShardInfo{}, err
	}
	return d.info, nil
}
func (d downShard) Healthy(context.Context) error {
	return fmt.Errorf("cluster: member %s is unreachable", d.name)
}
func (d downShard) Aggregate(context.Context, []float64) (float64, error) {
	return 0, fmt.Errorf("cluster: member %s is unreachable", d.name)
}
func (d downShard) Bounds(context.Context, []float64, float64) (Bounds, error) {
	return Bounds{}, fmt.Errorf("cluster: member %s is unreachable", d.name)
}
func (d downShard) ThresholdBounds(context.Context, []float64, float64) (Bounds, error) {
	return Bounds{}, fmt.Errorf("cluster: member %s is unreachable", d.name)
}

// install publishes a new membership under the seqlock: gen goes odd,
// the snapshot swaps, gen goes even. Callers hold w.mu and must NOT
// already hold the generation odd (splitLocked brackets the whole split
// itself and stores the snapshot directly).
func (w *WritableCoordinator) install(m *membership) {
	w.gen.Add(1) // odd: queries in flight will re-scatter
	w.mem.Store(m)
	w.gen.Add(1) // even again
}

// persist writes the manifest to the configured path (temp file, synced,
// then renamed over the live one, so a crash leaves the old manifest or the
// new one, never a torn one), refusing to regress an epoch already on disk.
func (w *WritableCoordinator) persist(man *shard.Manifest) error {
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

// Manifest returns a copy of the current routing manifest.
func (w *WritableCoordinator) Manifest() *shard.Manifest { return w.mem.Load().man.Clone() }

// Dims reports the dataset dimensionality (0 until the first insert when
// founded over empty shards).
func (w *WritableCoordinator) Dims() int { return w.mem.Load().co.Dims() }

// Points reports the total point count as of the current epoch's
// construction.
func (w *WritableCoordinator) Points() int { return w.mem.Load().co.Points() }

// KernelName reports the shared kernel name.
func (w *WritableCoordinator) KernelName() string { return w.mem.Load().co.KernelName() }

// Epoch returns the current manifest epoch.
func (w *WritableCoordinator) Epoch() uint64 { return w.mem.Load().man.Epoch }

// NumShards returns the current member count (including unreachable
// members).
func (w *WritableCoordinator) NumShards() int { return len(w.mem.Load().man.Members) }

// Splits returns how many shard splits have completed.
func (w *WritableCoordinator) Splits() int64 { return w.splits.Load() }

// Rescatters returns how many queries were re-scattered after straddling
// a membership change.
func (w *WritableCoordinator) Rescatters() int64 { return w.rescatters.Load() }

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
// mid-batch failure — the read coordinator's weight masses of every member
// that acknowledged points are refreshed (refreshMassLocked).
func (w *WritableCoordinator) Insert(ctx context.Context, points [][]float64, weights []float64) ([]uint64, error) {
	if len(points) == 0 {
		return nil, errors.New("cluster: empty insert")
	}
	if weights != nil && len(weights) != len(points) {
		return nil, fmt.Errorf("cluster: %d weights for %d points", len(weights), len(points))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.mem.Load()
	var touched []uint64 // members that acknowledged points of this call
	defer func() { w.refreshMassLocked(touched) }()

	// Group per owning member, preserving input order within each group.
	groups := map[uint64][]int{}
	var order []uint64
	for i, p := range points {
		id := m.man.Route(p)
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
		c := m.clients[mid]
		if c == nil {
			return partial(), fmt.Errorf("cluster: member %d (%s) is unreachable (%d of %d points landed; non-zero returned ids name them)",
				mid, m.man.Member(mid).Name, landed, len(points))
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
					m = w.mem.Load()
					if c2 := m.clients[mid]; c2 != nil {
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
	if m.co.dims == 0 {
		// The founding members were empty; the read coordinator pinned
		// dims at 0. Rebuild it now that the dataset has a dimensionality.
		m2, err := w.buildMembership(ctx, m.man, m.clients, true)
		if err != nil {
			return ids, fmt.Errorf("cluster: all %d points landed, but reads stay refused: rebuilding the read coordinator: %w", len(points), err)
		}
		w.install(m2)
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
// read coordinator, so the a-priori clamp [klo·W_S, khi·W_S] that every
// Threshold/Approximate exchange starts from tracks the shard's true mass.
// Without it the masses stay at their membership-build values (the first
// insert's, for a cluster founded empty) and a shard holding more mass than
// recorded is clamped below its true contribution — a silently wrong eKAQ.
// The masses ride on the write's own reply: no round trip is made here,
// and reads pay nothing. A client with no write reply yet keeps the old
// masses. Called with w.mu held.
func (w *WritableCoordinator) refreshMassLocked(members []uint64) {
	m := w.mem.Load()
	for i := range m.man.Members {
		id := m.man.Members[i].ID
		c := m.clients[id]
		if c == nil || !slices.Contains(members, id) {
			continue
		}
		if mass, ok := c.WriteMass(); ok {
			m.co.setMass(i, mass) // shards are built in manifest member order
		}
	}
}

// Delete removes the point with the given cluster-global id. The id
// routes to the member that assigned it; if that member no longer holds
// the point, the delete chases the split lineage — only descendants whose
// BaseSeq fence admits the sequence number can have inherited it, so a
// fresh point with a recycled-looking id on an unrelated member is never
// touched.
func (w *WritableCoordinator) Delete(ctx context.Context, gid uint64) error {
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
// Members that lost points have their weight masses refreshed in the read
// coordinator once per call (refreshMassLocked).
func (w *WritableCoordinator) DeleteMany(ctx context.Context, gids []uint64) (int, error) {
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
		c := w.mem.Load().clients[mid]
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
func (w *WritableCoordinator) deleteLocked(ctx context.Context, gid uint64, ownerMissed bool) (uint64, error) {
	mid, seq := DecodeID(gid)
	m := w.mem.Load()
	if m.man.Member(mid) == nil {
		return 0, fmt.Errorf("cluster: point %d names unknown member %d: %w", gid, mid, karl.ErrPointNotFound)
	}
	candidates := lineageCandidates(m.man, mid, seq)
	if ownerMissed {
		candidates = candidates[1:]
	}
	unreachable := false
	for _, cand := range candidates {
		c := m.clients[cand]
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
func (w *WritableCoordinator) maybeSplitLocked(ctx context.Context) {
	if w.spawn == nil {
		return
	}
	m := w.mem.Load()
	if len(m.man.Members) >= maxShards {
		return
	}
	var heavy uint64
	var heavyW, totalW float64
	heavyPts, alive := 0, 0
	for id, c := range m.clients {
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
func (w *WritableCoordinator) Split(ctx context.Context, memberID uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.mem.Load().man.Members) >= maxShards {
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
func (w *WritableCoordinator) splitLocked(ctx context.Context, srcID uint64) error {
	if w.spawn == nil {
		return errors.New("cluster: no spawner configured")
	}
	m := w.mem.Load()
	src := m.clients[srcID]
	if src == nil {
		return fmt.Errorf("cluster: member %d has no reachable client", srcID)
	}
	var rule shard.SplitRule
	auto := false
	switch m.man.Kind {
	case shard.Hash:
		slots := m.man.MemberSlots(srcID)
		if len(slots) < 2 {
			return fmt.Errorf("cluster: member %d owns %d hash slots, cannot split", srcID, len(slots))
		}
		rule = shard.SplitRule{Kind: shard.Hash, NumSlots: m.man.NumSlots, Slots: slots[len(slots)/2:]}
	case shard.KDSplit:
		rule = shard.SplitRule{Kind: shard.KDSplit}
		auto = true
	default:
		return fmt.Errorf("cluster: unknown routing kind %v", m.man.Kind)
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
	man2, err := m.man.ApplySplit(srcID, member, res.Rule)
	if err != nil {
		// The points already left the source; failing over (or
		// quarantining) it keeps the accounting honest even on this
		// (programmer-error) path.
		return errors.Join(err, w.failoverLocked(ctx, srcID))
	}
	clients2 := make(map[uint64]MutableShardClient, len(m.clients)+1)
	for id, c := range m.clients {
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
	m2, err := w.buildMembership(ctx, man2, clients2, true)
	if err != nil {
		return errors.Join(spawnErr, err)
	}
	// Published inside the odd-generation window splitLocked holds; the
	// deferred increment makes it visible to waiting reads.
	w.mem.Store(m2)
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
func (w *WritableCoordinator) quarantineLocked(ctx context.Context, id uint64) error {
	m := w.mem.Load()
	clients2 := make(map[uint64]MutableShardClient, len(m.clients))
	for cid, c := range m.clients {
		if cid != id {
			clients2[cid] = c
		}
	}
	man2 := m.man.Clone()
	man2.Epoch++
	m2, err := w.buildMembership(ctx, man2, clients2, true)
	if err != nil {
		return err
	}
	w.mem.Store(m2)
	w.quarantines.Add(1)
	return w.persist(man2)
}

// snapshot returns the current membership under an even generation,
// waiting out an in-flight membership change (bounded by ctx).
func (w *WritableCoordinator) snapshot(ctx context.Context) (*membership, uint64, error) {
	for {
		g := w.gen.Load()
		if g%2 == 0 {
			m := w.mem.Load()
			if w.gen.Load() == g {
				return m, g, nil
			}
			continue
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// query runs fn against a consistent membership snapshot, re-scattering
// when the generation advanced underneath it — the straddle could have
// mixed pre- and post-split shard states into one sum.
func (w *WritableCoordinator) query(ctx context.Context, fn func(*Coordinator) (server.Result, error)) (server.Result, error) {
	for attempt := 0; ; attempt++ {
		m, g, err := w.snapshot(ctx)
		if err != nil {
			return server.Result{}, err
		}
		res, err := fn(m.co)
		if w.gen.Load() == g {
			return res, err
		}
		w.rescatters.Add(1)
		if attempt >= epochRetries {
			return server.Result{}, fmt.Errorf("%w: %d re-scatters exhausted (epoch now %d)",
				ErrEpochChanged, attempt+1, w.Epoch())
		}
	}
}

// Aggregate computes F_P(q) exactly over the current membership; see
// Coordinator.Aggregate for the degradation contract.
func (w *WritableCoordinator) Aggregate(ctx context.Context, q []float64) (server.Result, error) {
	return w.query(ctx, func(co *Coordinator) (server.Result, error) { return co.Aggregate(ctx, q) })
}

// Threshold decides F_P(q) > τ over the current membership; see
// Coordinator.Threshold.
func (w *WritableCoordinator) Threshold(ctx context.Context, q []float64, tau float64) (server.Result, error) {
	return w.query(ctx, func(co *Coordinator) (server.Result, error) { return co.Threshold(ctx, q, tau) })
}

// Approximate computes F_P(q) to relative error eps over the current
// membership; see Coordinator.Approximate.
func (w *WritableCoordinator) Approximate(ctx context.Context, q []float64, eps float64) (server.Result, error) {
	return w.query(ctx, func(co *Coordinator) (server.Result, error) { return co.Approximate(ctx, q, eps) })
}
