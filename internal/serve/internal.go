// Shard-server mode: the internal RPC surface a distributed router
// (internal/router) scatter-gathers over. A dehealthd process booted from
// a per-shard snapshot slice serves these endpoints alongside the public
// /v1 API; the router fans a query out to every shard's /internal/query
// and merges the replies under the global selection order.
//
// The contract that keeps the distributed answer bit-identical to the
// in-process fan-out lives here: every candidate id crossing the wire is
// GLOBAL. A slice-booted backend scores local ids [0, Hi-Lo) — the reply
// construction rebases them (+Lo from the backend's SliceInfoer identity)
// at the wire boundary, never mutating backend-owned slices. Scores cross
// as JSON float64, which Go marshals round-trip exactly, so the router
// merges the same bit patterns the shard computed.

package serve

import (
	"net/http"

	"dehealth/internal/core"
)

// ShardSlice is a backend's slice identity: shard Shard of Shards,
// serving the global auxiliary id window [Lo, Hi) out of AuxTotal users.
type ShardSlice struct {
	Shard    int `json:"shard"`
	Shards   int `json:"shards"`
	Lo       int `json:"lo"`
	Hi       int `json:"hi"`
	AuxTotal int `json:"aux_total"`
}

// SliceInfoer is the optional Backend extension of slice-booted worlds:
// backends loaded from a per-shard snapshot slice report (identity, true)
// and the server rebases their local candidate ids to global ones in
// /internal/query replies and advertises the identity on /internal/shard.
// Full-world backends simply do not implement it (or return false) and
// present as shard 0 of 1.
type SliceInfoer interface {
	ShardSlice() (ShardSlice, bool)
}

// InternalQuery is the router's per-shard RPC body: one batch of
// anonymized user ids to answer at candidate-set size K (DefaultK when
// omitted). The router sends one such call per shard per client request,
// so the batch arrives pre-grouped for the backend's multi-query kernel.
type InternalQuery struct {
	Users []int `json:"users"`
	K     int   `json:"k,omitempty"`
	// Approx carries the public query's "approx" key; the answer is exact
	// either way (see compat.go).
	Approx bool `json:"approx,omitempty"`
}

// WireCandidate is one scored candidate on the internal wire. User is a
// GLOBAL auxiliary id (already rebased for slice backends); Score crosses
// as float64 text that Go JSON round-trips bit-exactly.
type WireCandidate struct {
	User  int     `json:"user"`
	Score float64 `json:"score"`
}

// InternalQueryReply answers an InternalQuery: the serving shard's
// identity (echoed so the router can detect misconfigured topologies) and
// one global-id candidate list per requested user, aligned by index.
type InternalQueryReply struct {
	Shard   int               `json:"shard"`
	Lo      int               `json:"lo"`
	Results [][]WireCandidate `json:"results"`
}

// ShardInfo is the GET /internal/shard reply: the server's partition
// identity plus its current sizes. The router's health prober validates
// Shard/Shards against its configured topology before admitting a replica
// into rotation, so a replica URL pointing at the wrong shard is quarantined
// instead of silently merging the wrong window.
type ShardInfo struct {
	Shard     int `json:"shard"`
	Shards    int `json:"shards"`
	Lo        int `json:"lo"`
	Hi        int `json:"hi"`
	AuxTotal  int `json:"aux_total"`
	AnonUsers int `json:"anon_users"`
	AuxUsers  int `json:"aux_users"`
}

// slice resolves the backend's shard identity: its advertised slice, or
// the full-world identity (shard 0 of 1 over the whole population). It
// reads the backend's sizes, so callers hold the server lock.
func (s *Server) slice() ShardSlice {
	if s.slicer != nil {
		if sl, isSlice := s.slicer.ShardSlice(); isSlice {
			return sl
		}
	}
	_, aux := s.backend.Sizes()
	return ShardSlice{Shard: 0, Shards: 1, Lo: 0, Hi: aux, AuxTotal: aux}
}

func (s *Server) handleInternalShard(w http.ResponseWriter, r *http.Request) {
	s.backendMu.RLock()
	sl := s.slice()
	anon, aux := s.backend.Sizes()
	s.backendMu.RUnlock()
	writeJSON(w, http.StatusOK, ShardInfo{
		Shard: sl.Shard, Shards: sl.Shards, Lo: sl.Lo, Hi: sl.Hi, AuxTotal: sl.AuxTotal,
		AnonUsers: anon, AuxUsers: aux,
	})
}

// handleInternalQuery answers one shard batch as a single backend call —
// the router built it per shard, so it arrives as a ready-made kernel
// group — then rebases candidate ids to global at the wire boundary. An
// error fails the whole call; the router's retry/hedge layer owns recovery.
func (s *Server) handleInternalQuery(w http.ResponseWriter, r *http.Request) {
	var q InternalQuery
	if !DecodeBody(w, r, "internal query", &q) {
		return
	}
	var (
		sl    ShardSlice
		cands [][]core.Candidate
	)
	if !s.do(w, r, false, len(q.Users), func() (err error) {
		sl = s.slice()
		cands, err = s.queryBatch(q.Users, s.effectiveK(q.K), q.Approx)
		return err
	}) {
		return
	}
	reply := InternalQueryReply{Shard: sl.Shard, Lo: sl.Lo, Results: make([][]WireCandidate, len(cands))}
	for i, cs := range cands {
		out := make([]WireCandidate, len(cs))
		for j, c := range cs {
			out[j] = WireCandidate{User: c.User + sl.Lo, Score: c.Score}
		}
		reply.Results[i] = out
	}
	writeJSON(w, http.StatusOK, reply)
}
