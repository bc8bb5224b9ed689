// Package bench regenerates every table and figure of the paper's
// evaluation (Section 7). Each Fig*/Table* function runs the workload
// and returns a Report whose rows mirror the series the paper plots;
// cmd/experiments prints them all and EXPERIMENTS.md records the
// measured values next to the paper's.
//
// Scale is configurable so the full suite can run as unit tests at
// reduced size; Default() matches the paper's dataset sizes. The
// per-entity loops run either as full deduce → top-k batches through
// package pipeline (runPipeline), or as raw index loops through
// par.Each, the loop under the update stream and the pooled checks.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/topk"
)

// Config scales the experiments.
type Config struct {
	// MedEntities / CFPEntities bound how many entities of each dataset
	// are evaluated (0 = all generated).
	MedEntities int
	CFPEntities int
	// Restaurants for the Rest dataset.
	Restaurants int
	// SynSizes are the ‖Ie‖ points of Fig 6(i); SynDefault* the fixed
	// parameters of the other sweeps.
	SynSizes   []int
	SynSigmas  []int
	SynIms     []int
	SynKs      []int
	SynTuples  int // fixed ‖Ie‖ for 6(j), 6(k), 6(l)
	SynIm      int
	SynSigma   int
	SynK       int
	MedBuckets [][2]int // instance-size buckets of Fig 7(a)
	KValues    []int    // k sweep of Fig 6(b)/(f)
	// QualitySample bounds the number of entities evaluated per
	// configuration in the k/‖Im‖/interaction sweeps (0 = all). The
	// percentages are stable well below the full 2.7K entities, and the
	// sweeps multiply every entity by ~20 configurations.
	QualitySample int
	// Workers bounds how many entities are evaluated concurrently in
	// the per-entity loops. Entities are independent — each gets its
	// own grounding — so the sweeps scale with cores. 0 means
	// GOMAXPROCS for the quality/accuracy sweeps but sequential for the
	// timing experiments (Fig 7a/7b, IsCR timing), whose per-entity
	// wall-clock figures would otherwise be inflated by contention; set
	// Workers explicitly to fan those out too.
	Workers int
}

// Default matches the paper's experimental setting.
func Default() Config {
	return Config{
		MedEntities:   0,
		CFPEntities:   0,
		Restaurants:   1000,
		SynSizes:      []int{300, 600, 900, 1200, 1500},
		SynSigmas:     []int{20, 40, 60, 80, 100},
		SynIms:        []int{100, 200, 300, 400, 500},
		SynKs:         []int{5, 10, 15, 20, 25},
		SynTuples:     900,
		SynIm:         300,
		SynSigma:      60,
		SynK:          15,
		MedBuckets:    [][2]int{{1, 18}, {19, 36}, {37, 54}, {55, 72}, {73, 90}},
		KValues:       []int{5, 10, 15, 20, 25},
		QualitySample: 600,
	}
}

// Quick is a fast configuration for tests.
func Quick() Config {
	return Config{
		MedEntities: 120,
		CFPEntities: 60,
		Restaurants: 200,
		SynSizes:    []int{100, 200},
		SynSigmas:   []int{20, 60},
		SynIms:      []int{50, 100},
		SynKs:       []int{5, 15},
		SynTuples:   150,
		SynIm:       50,
		SynSigma:    40,
		SynK:        5,
		MedBuckets:  [][2]int{{1, 8}, {9, 16}},
		KValues:     []int{5, 15},
		// Force real concurrency in the per-entity loops even on
		// single-core CI machines, so the -race tests exercise it.
		Workers: 4,
	}
}

// Report is one table/figure worth of results.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// dataset caches generated datasets across experiments.
type datasets struct {
	med  *gen.Dataset
	cfp  *gen.Dataset
	rest *gen.RestDataset
}

// Suite runs experiments sharing generated datasets.
type Suite struct {
	Cfg Config
	ds  datasets
}

// NewSuite creates a suite with the given scale.
func NewSuite(cfg Config) *Suite { return &Suite{Cfg: cfg} }

func (s *Suite) med() *gen.Dataset {
	if s.ds.med == nil {
		cfg := gen.MedConfig()
		if s.Cfg.MedEntities > 0 {
			cfg.NumEntities = s.Cfg.MedEntities
		}
		s.ds.med = gen.Generate(cfg)
	}
	return s.ds.med
}

func (s *Suite) cfp() *gen.Dataset {
	if s.ds.cfp == nil {
		cfg := gen.CFPConfig()
		if s.Cfg.CFPEntities > 0 {
			cfg.NumEntities = s.Cfg.CFPEntities
		}
		s.ds.cfp = gen.Generate(cfg)
	}
	return s.ds.cfp
}

// sample returns the entity subset used by the quality sweeps.
func (s *Suite) sample(ds *gen.Dataset) []gen.Entity {
	if s.Cfg.QualitySample > 0 && len(ds.Entities) > s.Cfg.QualitySample {
		return ds.Entities[:s.Cfg.QualitySample]
	}
	return ds.Entities
}

func (s *Suite) rest() *gen.RestDataset {
	if s.ds.rest == nil {
		cfg := gen.RestDefault()
		if s.Cfg.Restaurants > 0 {
			cfg.Restaurants = s.Cfg.Restaurants
		}
		s.ds.rest = gen.GenerateRest(cfg)
	}
	return s.ds.rest
}

// timingWorkers resolves the worker count for the timing experiments:
// they stay sequential unless Workers is set explicitly, so per-entity
// wall-clock means and percentiles reproduce the paper's sequential
// methodology by default (concurrent siblings would inflate them).
func (s *Suite) timingWorkers() int {
	if s.Cfg.Workers > 0 {
		return s.Cfg.Workers
	}
	return 1
}

// instances extracts the entity instances of a slice of generated
// entities, aligned by index, for the batch pipeline.
func instances(entities []gen.Entity) []*model.EntityInstance {
	out := make([]*model.EntityInstance, len(entities))
	for i, e := range entities {
		out[i] = e.Instance
	}
	return out
}

// runPipeline fans a dataset's entities through the batch pipeline on
// the suite's worker count and surfaces the first per-entity error (the
// experiments generate clean specifications, so any error is a bug).
func runPipeline(s *Suite, ds *gen.Dataset, entities []gen.Entity, cfg pipeline.Config) ([]pipeline.Result, pipeline.Summary, error) {
	cfg.Master = ds.Master
	cfg.Rules = ds.Rules
	if cfg.Workers == 0 {
		cfg.Workers = s.Cfg.Workers
	}
	results, sum, err := pipeline.Run(instances(entities), cfg)
	if err != nil {
		return nil, sum, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, sum, r.Err
		}
	}
	return results, sum, nil
}

// foundInTopK reports whether the entity's truth is recoverable at k:
// a complete deduced target counts when it equals the truth; an
// incomplete one when the truth appears among the top-k candidates.
func foundInTopK(g *chase.Grounding, e gen.Entity, k int, algo func(*chase.Grounding, *topk.Preference) ([]topk.Candidate, error)) (bool, error) {
	res := g.Run(nil)
	if !res.CR {
		return false, nil
	}
	if res.Complete() {
		return res.Target.EqualTo(e.Truth), nil
	}
	pref := topk.Preference{K: k, MaxChecks: 4000}
	cands, err := algo(g, &pref)
	if err != nil {
		return false, err
	}
	for _, c := range cands {
		if c.Tuple.EqualTo(e.Truth) {
			return true, nil
		}
	}
	return false, nil
}

func topkct(g *chase.Grounding, pref *topk.Preference) ([]topk.Candidate, error) {
	res := g.Run(nil)
	cands, _, err := topk.TopKCT(g, res.Target, *pref)
	return cands, err
}

func topkcth(g *chase.Grounding, pref *topk.Preference) ([]topk.Candidate, error) {
	res := g.Run(nil)
	cands, _, err := topk.TopKCTh(g, res.Target, *pref)
	return cands, err
}
