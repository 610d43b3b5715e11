// What is left of the retired approximate tier on the wire. Requests may
// still carry "approx": true, and every answer is exact. A backend written
// for the tier may still implement QueryBatchApprox — the frozen benchmark
// program's sparse-world adapter does, and answers there through its
// pruned world — so a flagged request goes to that method when the backend
// has it and to QueryBatch otherwise.

package serve

import "dehealth/internal/core"

// approxBackend is the query method of a backend written for the retired
// approximate tier.
type approxBackend interface {
	QueryBatchApprox(users []int, k int) ([][]core.Candidate, error)
}

// query answers one /v1/query (a one-user batch) or /internal/query group
// (see the file comment).
func (s *Server) query(users []int, k int, approx bool) ([][]core.Candidate, error) {
	if b, ok := s.backend.(approxBackend); ok && approx {
		return b.QueryBatchApprox(users, k)
	}
	return s.backend.QueryBatch(users, k)
}
