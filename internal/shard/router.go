// Dynamic membership for the writable cluster: an epoch-versioned
// Manifest that both ROUTES points to shard members (hash slots or a kd
// split tree) and RECORDS membership lineage (which member split off
// which, and at what id fence). The coordinator mutates it copy-on-write,
// bumps Epoch on every membership change, and persists it with WriteTo —
// queries that observe two different epochs straddled a split and must be
// re-scattered.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"karl/internal/blockio"
)

// DefaultSlots is the hash-routing slot-space size: points hash onto one
// of this many slots, and membership changes reassign whole slots. It
// caps how many members a hash-routed cluster can grow to.
const DefaultSlots = 256

// SlotOf returns the hash slot of a point: FNV-1a over its coordinate
// bits, mod numSlots. Content-addressed like hashPartition, so the same
// point always lands on the same slot no matter which engine stored it.
func SlotOf(p []float64, numSlots int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64() % uint64(numSlots)
}

// Role is a member's or replica's place in the replication topology.
type Role int

const (
	// RoleLeader serves reads and owns all writes for its routing region.
	RoleLeader Role = iota
	// RoleFollower is a caught-up live copy: eligible for read failover
	// and for promotion when its leader dies.
	RoleFollower
	// RoleCatchingUp is still streaming the leader's segments and tail;
	// not yet eligible for reads or promotion.
	RoleCatchingUp
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	case RoleCatchingUp:
		return "catching-up"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Replica is one follower of a member, recorded in the manifest so a
// resumed coordinator can re-attach it by name and so operators can see
// the replication topology. AckedSeq is the follower's replication
// watermark (highest leader sequence it had applied) at the last
// membership persist — advisory, like Member.Points.
type Replica struct {
	Name     string
	Role     Role
	AckedSeq uint64
}

// Member is one shard of a dynamic cluster. IDs are assigned once and
// never reused; lineage (Parent, BaseSeq) lets delete routing chase a
// point that a split moved: a point id below BaseSeq may have been
// inherited from the parent's lineage, an id at or above it was assigned
// natively.
type Member struct {
	// ID is the member's stable identity (≥ 1).
	ID uint64
	// Name is the display/addressing label (e.g. the shard URL).
	Name string
	// Parent is the member this one split off from (0 for founders).
	Parent uint64
	// BaseSeq is the engine id fence at creation: local ids < BaseSeq may
	// refer to points inherited through the split, ids ≥ BaseSeq are
	// natively assigned. Founders have BaseSeq 0.
	BaseSeq uint64
	// Points and the weight masses snapshot the member's engine at the
	// last membership change (advisory: live values drift with writes).
	Points int
	WPos   float64
	WNeg   float64
	// Role is the member's replication role. Top-level members are always
	// leaders (followers live in Replicas).
	Role Role
	// Replicas is the member's follower set.
	Replicas []Replica
}

// RouteNode is one node of the kd routing tree. An internal node sends
// p[Dim] < Cut left and p[Dim] ≥ Cut right; a leaf (Dim == -1) names the
// owning member.
type RouteNode struct {
	Dim         int32 // -1 for leaves
	Cut         float64
	Left, Right int32  // child node indices (internal nodes)
	Member      uint64 // owning member (leaves)
}

// Manifest is the epoch-versioned membership + routing state of a
// writable cluster. Epoch starts at 1 and increases by exactly one on
// every membership change; two manifests with equal epochs are
// identical. Values are treated as immutable — mutations go through
// Clone + ApplySplit so readers can hold a snapshot without locks.
type Manifest struct {
	Epoch   uint64
	Kind    Kind
	Members []Member

	// NumSlots/Slots route under Hash: Slots[s] is the member ID owning
	// hash slot s.
	NumSlots int
	Slots    []uint64

	// Nodes routes under KDSplit: a binary tree rooted at index 0.
	Nodes []RouteNode
}

// ErrStaleManifest reports an attempt to install a manifest whose epoch
// does not advance the current one — a file or message from before the
// latest membership change.
var ErrStaleManifest = errors.New("shard: stale manifest epoch")

// NewManifest founds a cluster manifest at epoch 1. Hash routing accepts
// any member count up to the slot space; kd routing must start from a
// single member (the split tree grows one leaf per shard split — there is
// no spatial information to divide an empty tree among several founders).
func NewManifest(kind Kind, members []Member) (*Manifest, error) {
	if len(members) == 0 {
		return nil, errors.New("shard: manifest needs at least one member")
	}
	seen := map[uint64]bool{}
	for _, mb := range members {
		if mb.ID == 0 {
			return nil, errors.New("shard: member id 0 is reserved")
		}
		if seen[mb.ID] {
			return nil, fmt.Errorf("shard: duplicate member id %d", mb.ID)
		}
		seen[mb.ID] = true
	}
	m := &Manifest{Epoch: 1, Kind: kind, Members: append([]Member(nil), members...)}
	switch kind {
	case Hash:
		if len(members) > DefaultSlots {
			return nil, fmt.Errorf("shard: %d members exceed the %d-slot hash space", len(members), DefaultSlots)
		}
		m.NumSlots = DefaultSlots
		m.Slots = make([]uint64, DefaultSlots)
		for s := range m.Slots {
			// Round-robin founding assignment: statistically even and
			// spatially mixed, like the static hash partitioner.
			m.Slots[s] = members[s%len(members)].ID
		}
	case KDSplit:
		if len(members) != 1 {
			return nil, fmt.Errorf("shard: kd routing must start from one member and grow by splits, got %d", len(members))
		}
		m.Nodes = []RouteNode{{Dim: -1, Member: members[0].ID}}
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %d", int(kind))
	}
	return m, nil
}

// Clone returns a deep copy for copy-on-write mutation.
func (m *Manifest) Clone() *Manifest {
	c := *m
	c.Members = append([]Member(nil), m.Members...)
	for i := range c.Members {
		c.Members[i].Replicas = append([]Replica(nil), c.Members[i].Replicas...)
	}
	c.Slots = append([]uint64(nil), m.Slots...)
	c.Nodes = append([]RouteNode(nil), m.Nodes...)
	return &c
}

// Member returns the member with the given id, or nil.
func (m *Manifest) Member(id uint64) *Member {
	for i := range m.Members {
		if m.Members[i].ID == id {
			return &m.Members[i]
		}
	}
	return nil
}

// Route returns the ID of the member owning the point.
func (m *Manifest) Route(p []float64) uint64 {
	if m.Kind == Hash {
		return m.Slots[SlotOf(p, m.NumSlots)]
	}
	i := int32(0)
	for {
		n := m.Nodes[i]
		if n.Dim < 0 {
			return n.Member
		}
		if int(n.Dim) < len(p) && p[n.Dim] < n.Cut {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// MemberSlots returns the hash slots owned by a member, ascending.
func (m *Manifest) MemberSlots(id uint64) []uint64 {
	var out []uint64
	for s, owner := range m.Slots {
		if owner == id {
			out = append(out, uint64(s))
		}
	}
	return out
}

// SplitRule is the predicate of one shard split in transferable form:
// which points move from the source member to the new one. The source
// engine evaluates it via Pred; the manifest applies the same rule to its
// routing state, so routing and placement advance together.
type SplitRule struct {
	Kind Kind
	// Dim/Cut (kd): points with p[Dim] ≥ Cut move.
	Dim int
	Cut float64
	// NumSlots/Slots (hash): points whose slot appears in Slots move.
	NumSlots int
	Slots    []uint64
}

// Pred compiles the rule into a point predicate (true = the point moves).
func (r SplitRule) Pred() (func(p []float64) bool, error) {
	switch r.Kind {
	case Hash:
		if r.NumSlots <= 0 {
			return nil, errors.New("shard: split rule without a slot space")
		}
		moved := make(map[uint64]bool, len(r.Slots))
		for _, s := range r.Slots {
			if s >= uint64(r.NumSlots) {
				return nil, fmt.Errorf("shard: split rule slot %d outside [0,%d)", s, r.NumSlots)
			}
			moved[s] = true
		}
		return func(p []float64) bool { return moved[SlotOf(p, r.NumSlots)] }, nil
	case KDSplit:
		if r.Dim < 0 {
			return nil, fmt.Errorf("shard: split rule dimension %d out of range", r.Dim)
		}
		dim, cut := r.Dim, r.Cut
		return func(p []float64) bool { return dim < len(p) && p[dim] >= cut }, nil
	default:
		return nil, fmt.Errorf("shard: unknown split rule kind %d", int(r.Kind))
	}
}

// ApplySplit returns a new manifest one epoch ahead, recording that
// member `to` split off member `from` under the given rule: the new
// member joins with lineage (Parent = from), and the routing state moves
// the ruled-out region — the rule's hash slots, or the ≥-Cut half of
// from's kd leaf — to the new member.
func (m *Manifest) ApplySplit(from uint64, to Member, rule SplitRule) (*Manifest, error) {
	if m.Member(from) == nil {
		return nil, fmt.Errorf("shard: split source member %d not in manifest", from)
	}
	if to.ID == 0 {
		return nil, errors.New("shard: member id 0 is reserved")
	}
	if m.Member(to.ID) != nil {
		return nil, fmt.Errorf("shard: member id %d already in manifest", to.ID)
	}
	if rule.Kind != m.Kind {
		return nil, fmt.Errorf("shard: split rule kind %v does not match manifest kind %v", rule.Kind, m.Kind)
	}
	c := m.Clone()
	c.Epoch++
	to.Parent = from
	c.Members = append(c.Members, to)
	switch m.Kind {
	case Hash:
		if rule.NumSlots != m.NumSlots {
			return nil, fmt.Errorf("shard: split rule slot space %d, manifest has %d", rule.NumSlots, m.NumSlots)
		}
		if len(rule.Slots) == 0 {
			return nil, errors.New("shard: hash split moves no slots")
		}
		for _, s := range rule.Slots {
			if s >= uint64(m.NumSlots) {
				return nil, fmt.Errorf("shard: split slot %d outside [0,%d)", s, m.NumSlots)
			}
			if c.Slots[s] != from {
				return nil, fmt.Errorf("shard: split slot %d owned by member %d, not %d", s, c.Slots[s], from)
			}
			c.Slots[s] = to.ID
		}
	case KDSplit:
		leaf := int32(-1)
		for i, n := range c.Nodes {
			if n.Dim < 0 && n.Member == from {
				leaf = int32(i)
				break
			}
		}
		if leaf < 0 {
			return nil, fmt.Errorf("shard: member %d owns no kd region", from)
		}
		l := int32(len(c.Nodes))
		c.Nodes = append(c.Nodes,
			RouteNode{Dim: -1, Member: from},
			RouteNode{Dim: -1, Member: to.ID},
		)
		c.Nodes[leaf] = RouteNode{Dim: int32(rule.Dim), Cut: rule.Cut, Left: l, Right: l + 1}
	}
	return c, nil
}

// ApplyPromotion returns a new manifest one epoch ahead, recording that
// the named follower of member `id` took over as its leader: the member
// keeps its ID (so cluster-global ids gid = member<<48|seq and the
// lineage fences keep resolving) but is re-addressed under the
// follower's name, and the follower leaves the replica set. The old
// leader's address is gone from the manifest — its process is dead or
// unknowable, which is why the promotion happened.
func (m *Manifest) ApplyPromotion(id uint64, replicaName string) (*Manifest, error) {
	mb := m.Member(id)
	if mb == nil {
		return nil, fmt.Errorf("shard: promotion target member %d not in manifest", id)
	}
	found := -1
	for i, r := range mb.Replicas {
		if r.Name == replicaName {
			found = i
			break
		}
	}
	if found < 0 {
		return nil, fmt.Errorf("shard: member %d has no replica %q to promote", id, replicaName)
	}
	if mb.Replicas[found].Role != RoleFollower {
		return nil, fmt.Errorf("shard: replica %q of member %d is %v, only a caught-up follower can be promoted",
			replicaName, id, mb.Replicas[found].Role)
	}
	c := m.Clone()
	cb := c.Member(id)
	cb.Name = replicaName
	cb.Role = RoleLeader
	cb.Replicas = append(cb.Replicas[:found], cb.Replicas[found+1:]...)
	c.Epoch++
	return c, nil
}

// WriteTo serializes the manifest as a blockio stream of one manifest
// block. ReadManifest validates it on load.
func (m *Manifest) WriteTo(w io.Writer) (int64, error) {
	c := blockio.NewEncoder(w)
	m.block(c)
	return c.Finish()
}

// block moves the manifest block: epoch, kind, the members (each with its
// replicas), the hash slot table and the kd routing nodes. Counts are only
// loop bounds — every element moved consumes bytes, so a stream cannot make
// a decoder allocate by declaring one.
func (m *Manifest) block(c *blockio.Codec) error {
	c.Begin(blockio.TagManifest)
	c.Uint64(&m.Epoch)
	blockio.Int(c, &m.Kind)
	n := len(m.Members)
	blockio.Int(c, &n)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			m.Members = append(m.Members, Member{})
		}
		mb := &m.Members[i]
		c.Uint64(&mb.ID)
		blockio.Text(c, &mb.Name)
		c.Uint64(&mb.Parent)
		c.Uint64(&mb.BaseSeq)
		blockio.Int(c, &mb.Points)
		c.Float64(&mb.WPos)
		c.Float64(&mb.WNeg)
		blockio.Int(c, &mb.Role)
		nr := len(mb.Replicas)
		blockio.Int(c, &nr)
		for j := 0; j < nr && c.Err() == nil; j++ {
			if c.Decoding() {
				mb.Replicas = append(mb.Replicas, Replica{})
			}
			r := &mb.Replicas[j]
			blockio.Text(c, &r.Name)
			blockio.Int(c, &r.Role)
			c.Uint64(&r.AckedSeq)
		}
	}
	blockio.Int(c, &m.NumSlots)
	blockio.Slice(c, &m.Slots)
	n = len(m.Nodes)
	blockio.Int(c, &n)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			m.Nodes = append(m.Nodes, RouteNode{})
		}
		nd := &m.Nodes[i]
		blockio.Int(c, &nd.Dim)
		c.Float64(&nd.Cut)
		blockio.Int(c, &nd.Left)
		blockio.Int(c, &nd.Right)
		c.Uint64(&nd.Member)
	}
	return c.End()
}

// ReadManifest deserializes and validates a cluster manifest: a
// truncated or corrupted stream, another format version, or a structurally
// inconsistent manifest (dangling slot owners, malformed kd tree,
// duplicate members, broken lineage) all fail loudly — a coordinator
// must never boot onto routing state it cannot trust.
func ReadManifest(r io.Reader) (*Manifest, error) {
	c := blockio.NewDecoder(r)
	m := &Manifest{}
	err := m.block(c)
	if err == nil {
		_, err = c.Finish()
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	if m.Epoch == 0 {
		return nil, errors.New("shard: manifest epoch 0 (epochs start at 1)")
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid manifest: %w", err)
	}
	return m, nil
}

// validate checks structural consistency.
func (m *Manifest) validate() error {
	if len(m.Members) == 0 {
		return errors.New("no members")
	}
	ids := map[uint64]bool{}
	for _, mb := range m.Members {
		if mb.ID == 0 {
			return errors.New("member id 0")
		}
		if ids[mb.ID] {
			return fmt.Errorf("duplicate member id %d", mb.ID)
		}
		ids[mb.ID] = true
	}
	for _, mb := range m.Members {
		if mb.Parent != 0 && !ids[mb.Parent] {
			return fmt.Errorf("member %d has unknown parent %d", mb.ID, mb.Parent)
		}
	}
	names := map[string]uint64{}
	for _, mb := range m.Members {
		if mb.Role != RoleLeader {
			return fmt.Errorf("member %d has role %v (top-level members must be leaders)", mb.ID, mb.Role)
		}
		if prev, dup := names[mb.Name]; dup {
			return fmt.Errorf("member %d reuses name %q of member %d", mb.ID, mb.Name, prev)
		}
		names[mb.Name] = mb.ID
		for _, r := range mb.Replicas {
			if r.Name == "" {
				return fmt.Errorf("member %d has a replica with an empty name", mb.ID)
			}
			if r.Role != RoleFollower && r.Role != RoleCatchingUp {
				return fmt.Errorf("replica %q of member %d has role %v (want follower or catching-up)", r.Name, mb.ID, r.Role)
			}
			if prev, dup := names[r.Name]; dup {
				return fmt.Errorf("replica %q of member %d reuses the name of member %d", r.Name, mb.ID, prev)
			}
			names[r.Name] = mb.ID
		}
	}
	switch m.Kind {
	case Hash:
		if m.NumSlots <= 0 || len(m.Slots) != m.NumSlots {
			return fmt.Errorf("slot table has %d entries for a %d-slot space", len(m.Slots), m.NumSlots)
		}
		for s, owner := range m.Slots {
			if !ids[owner] {
				return fmt.Errorf("slot %d owned by unknown member %d", s, owner)
			}
		}
	case KDSplit:
		if len(m.Nodes) == 0 {
			return errors.New("empty kd routing tree")
		}
		// Walk from the root: every node reachable exactly once, every
		// leaf naming a known member.
		visited := make([]bool, len(m.Nodes))
		stack := []int32{0}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if i < 0 || int(i) >= len(m.Nodes) {
				return fmt.Errorf("kd node index %d out of range", i)
			}
			if visited[i] {
				return fmt.Errorf("kd node %d reached twice (cycle or diamond)", i)
			}
			visited[i] = true
			n := m.Nodes[i]
			if n.Dim < 0 {
				if !ids[n.Member] {
					return fmt.Errorf("kd leaf %d names unknown member %d", i, n.Member)
				}
				continue
			}
			stack = append(stack, n.Left, n.Right)
		}
		for i, v := range visited {
			if !v {
				return fmt.Errorf("kd node %d unreachable from the root", i)
			}
		}
	default:
		return fmt.Errorf("unknown partitioner %d", int(m.Kind))
	}
	return nil
}
