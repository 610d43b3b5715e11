package stylometry

// Bridges from the package's own test files to its external tests, which
// draw their corpora from internal/synth (an importer of this package).

// ExtractSlow is the reference extractor of oracle_test.go.
func ExtractSlow(e *Extractor, v []float64, text string) { extractSlow(e, v, text) }

// FitSlow is the reference bigram fit of oracle_test.go.
func FitSlow(texts []string, maxBigrams int) [][2]int { return fitSlow(texts, maxBigrams) }
