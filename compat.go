// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat.

package dehealth

// ApproxConfig configured the retired approximate retrieval tier.
//
// Deprecated: Enabled is ignored. Every world runs the exact scan.
type ApproxConfig struct {
	Enabled bool
}
