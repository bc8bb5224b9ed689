package bench

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/stats"
)

// Fig6a measures the percentage of entities for which IsCR deduces a
// complete target tuple automatically (Exp-1; paper: Med 66%, CFP 72%).
// It runs each dataset through the batch pipeline — deduction only —
// and reads the answer off the summary.
func (s *Suite) Fig6a() (*Report, error) {
	rep := &Report{
		ID:     "Fig6a",
		Title:  "IsCR: entities with complete deduced targets",
		Header: []string{"dataset", "complete targets"},
	}
	for _, ds := range []*gen.Dataset{s.med(), s.cfp()} {
		_, sum, err := runPipeline(s, ds, ds.Entities, pipeline.Config{})
		if err != nil {
			return nil, err
		}
		c := stats.Counter{Hits: sum.Complete, Trials: sum.Entities}
		rep.Rows = append(rep.Rows, []string{ds.Name, c.Percent()})
	}
	rep.Notes = append(rep.Notes, "paper: Med 66%, CFP 72%")
	return rep, nil
}

// Fig6e measures the percentage of attributes whose most accurate value
// is deduced, with form-(1) rules only, form-(2) rules only, and both
// (Exp-1; paper Med: 42/20/73, CFP: 55/27/83). The superadditive
// interaction of the two forms is the headline observation.
func (s *Suite) Fig6e() (*Report, error) {
	rep := &Report{
		ID:     "Fig6e",
		Title:  "IsCR: attributes deduced by rule form",
		Header: []string{"dataset", "form (1) only", "form (2) only", "both"},
	}
	for _, ds := range []*gen.Dataset{s.med(), s.cfp()} {
		row := []string{ds.Name}
		for _, rules := range []*rule.Set{ds.Rules.Form1Only(), ds.Rules.Form2Only(), ds.Rules} {
			sh, err := chase.NewShared(ds.Schema, ds.Master, rules)
			if err != nil {
				return nil, err
			}
			hits := make([]int, len(ds.Entities))
			if err := par.Each(s.Cfg.Workers, len(ds.Entities), func(i int) error {
				g, err := sh.NewGrounding(ds.Entities[i].Instance, chase.Options{})
				if err != nil {
					return err
				}
				res := g.Run(nil)
				for a := 0; a < ds.Schema.Arity(); a++ {
					if res.CR && !res.Target.At(a).IsNull() {
						hits[i]++
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}
			c := stats.Counter{Trials: len(ds.Entities) * ds.Schema.Arity()}
			for _, h := range hits {
				c.Hits += h
			}
			row = append(row, c.Percent())
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"paper: Med 42%/20%/73%, CFP 55%/27%/83%; both forms exceed the sum of the parts",
		"no complete targets are deduced under either single form (see Fig6a code path)")
	return rep, nil
}

// CompleteByForm is the companion check of Fig 6(e)'s remark: with a
// single rule form, (almost) no complete targets are deduced.
func (s *Suite) CompleteByForm() (*Report, error) {
	rep := &Report{
		ID:     "Exp1-complete-by-form",
		Title:  "complete targets by rule form",
		Header: []string{"dataset", "form (1) only", "form (2) only", "both"},
	}
	for _, ds := range []*gen.Dataset{s.med(), s.cfp()} {
		row := []string{ds.Name}
		for _, rules := range []*rule.Set{ds.Rules.Form1Only(), ds.Rules.Form2Only(), ds.Rules} {
			sh, err := chase.NewShared(ds.Schema, ds.Master, rules)
			if err != nil {
				return nil, err
			}
			found := make([]bool, len(ds.Entities))
			if err := par.Each(s.Cfg.Workers, len(ds.Entities), func(i int) error {
				g, err := sh.NewGrounding(ds.Entities[i].Instance, chase.Options{})
				if err != nil {
					return err
				}
				res := g.Run(nil)
				found[i] = res.CR && res.Target.Complete()
				return nil
			}); err != nil {
				return nil, err
			}
			var c stats.Counter
			for _, f := range found {
				c.Add(f)
			}
			row = append(row, c.Percent())
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Exp1Accuracy complements Exp-1 with value correctness against ground
// truth (implicit in the paper's "correctly ... deduce" claims).
func (s *Suite) Exp1Accuracy() (*Report, error) {
	rep := &Report{
		ID:     "Exp1-accuracy",
		Title:  "correctness of deduced attribute values",
		Header: []string{"dataset", "deduced attrs correct"},
	}
	for _, ds := range []*gen.Dataset{s.med(), s.cfp()} {
		results, _, err := runPipeline(s, ds, ds.Entities, pipeline.Config{})
		if err != nil {
			return nil, err
		}
		var c stats.Counter
		for i, r := range results {
			if !r.Deduction.CR {
				continue
			}
			truth := ds.Entities[i].Truth
			for a := 0; a < ds.Schema.Arity(); a++ {
				if v := r.Deduction.Target.At(a); !v.IsNull() {
					c.Trials++
					if v.Equal(truth.At(a)) {
						c.Hits++
					}
				}
			}
		}
		rep.Rows = append(rep.Rows, []string{ds.Name, fmt.Sprintf("%.1f%%", 100*c.Rate())})
	}
	return rep, nil
}
