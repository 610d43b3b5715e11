// What is left of the retired approximate tier on the wire. Requests may
// still carry "approx": true, and every answer is exact. A backend written
// for the tier may still implement QueryUserApprox / QueryBatchApprox — the
// frozen benchmark program's sparse-world adapter does, and answers there
// through its pruned world — so a flagged request goes to those methods
// when the backend has them and to QueryUser / QueryBatch otherwise.

package serve

import "dehealth/internal/core"

// approxBackend is the method pair of a backend written for the retired
// approximate tier.
type approxBackend interface {
	QueryUserApprox(u, k int) ([]core.Candidate, error)
	QueryBatchApprox(users []int, k int) ([][]core.Candidate, error)
}

// queryUser answers one /v1/query (see the file comment).
func (s *Server) queryUser(u, k int, approx bool) ([]core.Candidate, error) {
	if b, ok := s.backend.(approxBackend); ok && approx {
		return b.QueryUserApprox(u, k)
	}
	return s.backend.QueryUser(u, k)
}

// queryBatch answers one /internal/query group (see the file comment).
func (s *Server) queryBatch(users []int, k int, approx bool) ([][]core.Candidate, error) {
	if b, ok := s.backend.(approxBackend); ok && approx {
		return b.QueryBatchApprox(users, k)
	}
	return s.backend.QueryBatch(users, k)
}
