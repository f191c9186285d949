package server

import (
	"net/http"

	"karl/internal/replica"
)

// WithReplicaApplier marks the served engine as a replication follower
// driven by the given applier: /v1/replicate/status reports its
// catch-up state, POST /v1/replicate/promote turns it into a leader,
// and the write endpoints (insert, delete, split) answer 409 until
// promotion — a follower that accepted writes would silently fork from
// its leader.
func WithReplicaApplier(a *replica.Applier) Option {
	return func(c *config) { c.applier = a }
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
	writeJSON(w, http.StatusOK, replica.LeaderStatus(s.loc.dyn.Status()))
}

// handleReplicateTail answers one pull: the engine's block stream with the
// segments the "have" parameter names elided (replica.FormatHave), or 304
// when the engine stands exactly where have says the follower does.
func (s *Server) handleReplicateTail(w http.ResponseWriter, r *http.Request) {
	have, err := replica.ParseHave(r.URL.Query().Get("have"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{`invalid "have" query parameter: ` + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// An error mid-stream cannot change the status line; the follower sees
	// a stream without its end block, which it refuses whole.
	if n, err := s.loc.dyn.WriteSnapshot(w, have); n == 0 && err == nil {
		w.WriteHeader(http.StatusNotModified)
	}
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
