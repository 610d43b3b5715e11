// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat.

package dehealth

// ApproxConfig configured the retired approximate retrieval tier.
//
// Deprecated: Enabled prepares the world exactly as Options.Prune does,
// and every query is answered exactly.
type ApproxConfig struct {
	Enabled bool
}
