package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"karl"
	"karl/internal/replica"
)

// replicaSource is the optional leader-side replication surface a
// mutable engine exposes (provided by *karl.Engine): status
// counters, a full snapshot stream, and incremental batch export. A
// mutable engine without it simply has no /v1/replicate endpoints.
type replicaSource interface {
	NextSeq() uint64
	DeletePos() uint64
	PullBatch(fence, delPos uint64) (*karl.ReplicaBatch, error)
	WriteTo(w io.Writer) (int64, error)
}

// WithReplicaApplier marks the served engine as a replication follower
// driven by the given applier: /v1/replicate/status reports its
// catch-up state, POST /v1/replicate/promote turns it into a leader,
// and the write endpoints (insert, delete, split) answer 409 until
// promotion — a follower that accepted writes would silently fork from
// its leader.
func WithReplicaApplier(a *replica.Applier) Option {
	return func(c *config) { c.applier = a }
}

// replicateRoutes registers the replication endpoints. The export side
// (status, snapshot, tail) is served by leaders AND followers — a
// promoted follower feeds the next generation of followers, and chained
// catch-up reads from an unpromoted one are harmless because segments
// and rows are idempotent by seq.
func (s *Server) replicateRoutes() {
	s.mux.HandleFunc("GET /v1/replicate/status", s.handleReplicateStatus)
	s.mux.HandleFunc("GET /v1/replicate/snapshot", s.handleReplicateSnapshot)
	s.mux.HandleFunc("GET /v1/replicate/tail", s.handleReplicateTail)
	s.mux.HandleFunc("POST /v1/replicate/promote", s.handleReplicatePromote)
}

// writeAllowed gates the mutation endpoints on replication role: an
// unpromoted follower refuses writes with 409 so a misconfigured client
// cannot fork it from its leader.
func (s *Server) writeAllowed(w http.ResponseWriter) bool {
	if s.applier != nil && !s.applier.Promoted() {
		writeJSON(w, http.StatusConflict, errorResponse{
			"this shard is a replication follower; writes go to its leader (or POST /v1/replicate/promote)",
		})
		return false
	}
	return true
}

// handleReplicateStatus reports the engine's replication status: the
// applier's catch-up state for followers, export counters for leaders.
func (s *Server) handleReplicateStatus(w http.ResponseWriter, r *http.Request) {
	if s.applier != nil {
		writeJSON(w, http.StatusOK, s.applier.Status())
		return
	}
	writeJSON(w, http.StatusOK, replica.Status{
		Role:      "leader",
		NextSeq:   s.loc.rsrc.NextSeq(),
		DeletePos: s.loc.rsrc.DeletePos(),
		Points:    s.loc.dyn.Len(),
		Epoch:     s.loc.dyn.Epoch(),
	})
}

// handleReplicateSnapshot streams the engine's full state (a karl
// persistence stream) with the delete-log position captured BEFORE
// serialization in the X-Karl-Delete-Pos header — the fresh-follower
// bootstrap unit.
func (s *Server) handleReplicateSnapshot(w http.ResponseWriter, r *http.Request) {
	delPos := s.loc.rsrc.DeletePos()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replica.DeletePosHeader, strconv.FormatUint(delPos, 10))
	// An error mid-stream cannot change the status line; the client sees
	// a stream without its end block, which ReadEngine refuses.
	_, _ = s.loc.rsrc.WriteTo(w)
}

// handleReplicateTail answers one incremental pull: everything above
// the follower's fence and delete position as one consistent batch.
// HTTP 409 is the resync verdict (trimmed delete log, a straddled timed
// segment) — HTTPSource maps it back to karl.ErrReplicaResync.
func (s *Server) handleReplicateTail(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fence, err := strconv.ParseUint(q.Get("fence"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{`invalid "fence" query parameter`})
		return
	}
	delPos, err := strconv.ParseUint(q.Get("deletes"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{`invalid "deletes" query parameter`})
		return
	}
	b, err := s.loc.rsrc.PullBatch(fence, delPos)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, karl.ErrReplicaResync) {
			status = http.StatusConflict
		}
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, b)
}

// handleReplicatePromote turns a follower into a leader: the applier
// stops pulling and the write endpoints open up. Promoting a shard that
// was never a follower is a 409.
func (s *Server) handleReplicatePromote(w http.ResponseWriter, r *http.Request) {
	if s.applier == nil {
		writeJSON(w, http.StatusConflict, errorResponse{"this shard is not a replication follower"})
		return
	}
	s.applier.Promote()
	writeJSON(w, http.StatusOK, s.applier.Status())
}
