package scheduler

// Marginals returns the effective inclusion probability of every node index
// up to the given length: the oracle the tests check draws against.
func (p *Picker) Marginals(numNodes int) []float64 {
	m := make([]float64, numNodes)
	for i, node := range p.nodes {
		if node < numNodes {
			m[node] = p.probs[i]
		}
	}
	return m
}
