package analysis

// All returns the full gillis-vet suite in stable (alphabetical) order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerNodeterm,
	}
}
