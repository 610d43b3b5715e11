// The router's public HTTP surface. It mirrors the shard servers' /v1
// query shapes (a router drop-in replaces a single dehealthd for query
// traffic) and adds the degradation report: partial responses carry
// "partial": true plus the missing shard list. /v1/query and /v1/batch are
// two decodings of one request: both end in Router.QueryBatch, the query as
// a batch of one. The "approx" key of the shard servers' wire is accepted
// and ignored, since every answer is exact. Ingestion is not routed —
// the auxiliary world is immutable at serving time and anonymized-side
// growth belongs to the offline prepare → slice → redeploy cycle — so the
// router exposes no /v1/ingest.

package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dehealth/internal/serve"
	"dehealth/internal/shard"
)

type queryWire struct {
	User int `json:"user"`
	K    int `json:"k,omitempty"`
}

type batchWire struct {
	Users []int `json:"users"`
	K     int   `json:"k,omitempty"`
}

type candidateWire struct {
	User  int     `json:"user"`
	Score float64 `json:"score"`
}

type queryReplyWire struct {
	User       int             `json:"user"`
	Candidates []candidateWire `json:"candidates"`
	Partial    bool            `json:"partial,omitempty"`
	Missing    []int           `json:"missing_shards,omitempty"`
}

type batchReplyWire struct {
	Results [][]candidateWire `json:"results"`
	Partial bool              `json:"partial,omitempty"`
	Missing []int             `json:"missing_shards,omitempty"`
}

type errorWire struct {
	Error string `json:"error"`
}

// Handler returns the router's HTTP API:
//
//	POST /v1/query  {"user": 17, "k": 10}        -> {"user": 17, "candidates": [...], "partial": true, "missing_shards": [1]}
//	POST /v1/batch  {"users": [17, 4], "k": 10}  -> {"results": [[...], [...]], ...}
//	GET  /v1/stats                               -> Stats (topology health + robustness counters)
//	GET  /healthz                                -> 200 "ok" / 503 "degraded" (a shard has no healthy replica)
//
// Bodies are capped at serve.MaxBodyBytes (413 past it). A query the
// shards reject (an out-of-range user id, say) gets their 400; queries
// that no shard can answer get 503 with the error body; partial
// degradation is a 200 with the report fields set.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", r.handleQuery)
	mux.HandleFunc("POST /v1/batch", r.handleBatch)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !r.Healthy() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "degraded")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	var q queryWire
	if !serve.DecodeBody(w, req, "query", &q) {
		return
	}
	res, err := r.QueryBatch(req.Context(), []int{q.User}, q.K)
	if err != nil {
		writeJSON(w, errorStatus(err), errorWire{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, queryReplyWire{
		User: q.User, Candidates: wireCandidates(res.Results[0]),
		Partial: res.Partial, Missing: res.Missing,
	})
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	var q batchWire
	if !serve.DecodeBody(w, req, "batch", &q) {
		return
	}
	if len(q.Users) == 0 {
		writeJSON(w, http.StatusOK, batchReplyWire{Results: [][]candidateWire{}})
		return
	}
	res, err := r.QueryBatch(req.Context(), q.Users, q.K)
	if err != nil {
		writeJSON(w, errorStatus(err), errorWire{Error: err.Error()})
		return
	}
	reply := batchReplyWire{Results: make([][]candidateWire, len(res.Results)), Partial: res.Partial, Missing: res.Missing}
	for i, cs := range res.Results {
		reply.Results[i] = wireCandidates(cs)
	}
	writeJSON(w, http.StatusOK, reply)
}

func wireCandidates(cs []shard.Candidate) []candidateWire {
	out := make([]candidateWire, len(cs))
	for i, c := range cs {
		out[i] = candidateWire{User: c.User, Score: c.Score}
	}
	return out
}

// errorStatus maps router errors to HTTP: a request a shard rejected is
// the client's fault and keeps its 400 (the error text carries the shard's
// message); a fleet that cannot answer is unavailability.
func errorStatus(err error) int {
	if rejected(err) {
		return http.StatusBadRequest
	}
	if errors.Is(err, ErrAllShardsDown) || errors.Is(err, ErrNoShards) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
