package bench

import (
	"fmt"

	"sprout/internal/cluster"
	"sprout/internal/optimizer"
)

// AblationResult compares caching policies at an identical cache budget on
// the same cluster, isolating the design choices README.md's opening
// paragraph describes: functional vs. exact chunks, partial vs. whole-file
// caching, optimization vs. popularity/greedy heuristics.
type AblationResult struct {
	Policy    string
	Objective float64 // weighted latency bound (seconds)
	CacheUsed int
}

// PolicyAblation runs every caching policy on the paper's cluster at the
// given cache budget (chunks) and reports the achieved latency bound.
func PolicyAblation(cfg Config, cacheChunks int) ([]AblationResult, error) {
	cfg = cfg.withDefaults()
	clusterCfg := cluster.PaperConfig()
	clusterCfg.NumFiles = cfg.Files
	clusterCfg.Seed = cfg.Seed
	c, err := clusterCfg.Build()
	if err != nil {
		return nil, err
	}
	if cacheChunks <= 0 {
		cacheChunks = cfg.Files / 2
	}
	p, err := optimizer.FromCluster(c, cacheChunks)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	add := func(policy string, plan *optimizer.Plan, err error) error {
		if err != nil {
			return fmt.Errorf("ablation: %s: %w", policy, err)
		}
		out = append(out, AblationResult{Policy: policy, Objective: plan.Objective, CacheUsed: plan.CacheUsed()})
		return nil
	}

	functional, err := optimizer.Optimize(p, optimizer.Options{})
	if err := add("functional (Algorithm 1)", functional, err); err != nil {
		return nil, err
	}
	exact, err := optimizer.ExactCaching(p, functional.D)
	if err := add("exact caching (same allocation)", exact, err); err != nil {
		return nil, err
	}
	greedy, err := optimizer.GreedyCaching(p)
	if err := add("greedy marginal benefit", greedy, err); err != nil {
		return nil, err
	}
	popularity, err := optimizer.PopularityCaching(p)
	if err := add("popularity (rate-ordered)", popularity, err); err != nil {
		return nil, err
	}
	wholeFile, err := optimizer.WholeFileCaching(p)
	if err := add("whole-file caching", wholeFile, err); err != nil {
		return nil, err
	}
	noCache, err := optimizer.NoCache(p)
	if err := add("no cache", noCache, err); err != nil {
		return nil, err
	}
	return out, nil
}

// AblationTable formats the policy comparison.
func AblationTable(results []AblationResult) *Table {
	t := &Table{
		Title:   "Ablation — caching policies at an identical cache budget",
		Headers: []string{"policy", "latency bound (s)", "cache chunks used"},
	}
	for _, r := range results {
		t.AddRow(r.Policy, f2(r.Objective), itoa(r.CacheUsed))
	}
	t.Notes = append(t.Notes,
		"expected ordering: functional <= exact; optimized <= popularity/whole-file; every cached policy <= no cache")
	return t
}
