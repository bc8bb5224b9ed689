package bench

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/rule"
	"repro/internal/stats"
	"repro/internal/topk"
)

// topkAlgo runs a top-k search given a grounding and preference.
type topkAlgo = func(*chase.Grounding, *topk.Preference) ([]topk.Candidate, error)

// varyK is the body of Fig 6(b)/(f): the fraction of entities whose
// manually-identified (here: generated) target tuple is recovered at
// top-k, for TopKCT under each rule-form restriction and for TopKCTh.
func (s *Suite) varyK(id string, ds *gen.Dataset) (*Report, error) {
	rep := &Report{
		ID:    id,
		Title: fmt.Sprintf("%s: targets found in top-k vs k", ds.Name),
		Header: []string{"k", "TopKCT form(1)", "TopKCT form(2)", "TopKCT both",
			"TopKCTh both"},
	}
	ruleSets := []*rule.Set{ds.Rules.Form1Only(), ds.Rules.Form2Only(), ds.Rules, ds.Rules}
	shared := make([]*chase.Shared, len(ruleSets))
	for vi, rules := range ruleSets {
		var err error
		if shared[vi], err = chase.NewShared(ds.Schema, ds.Master, rules); err != nil {
			return nil, err
		}
	}
	sample := s.sample(ds)
	for _, k := range s.Cfg.KValues {
		row := []string{fmt.Sprintf("%d", k)}
		for vi := range ruleSets {
			found := make([]bool, len(sample))
			if err := par.Each(s.Cfg.Workers, len(sample), func(i int) error {
				e := sample[i]
				g, err := shared[vi].NewGrounding(e.Instance, chase.Options{})
				if err != nil {
					return err
				}
				algo := topkct
				if vi == 3 {
					algo = topkcth
				}
				ok, err := foundInTopK(g, e, k, algo)
				if err != nil {
					return err
				}
				found[i] = ok
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
	rep.Notes = append(rep.Notes,
		"paper shape: rising with k; both forms beat single forms; TopKCT slightly above TopKCTh",
		"paper values at k=25: Med 92% (TopKCT) / 91% (TopKCTh); CFP 94% / 87%")
	return rep, nil
}

// Fig6b is the Med k-sweep of Exp-2.
func (s *Suite) Fig6b() (*Report, error) { return s.varyK("Fig6b", s.med()) }

// Fig6f is the CFP k-sweep of Exp-2.
func (s *Suite) Fig6f() (*Report, error) { return s.varyK("Fig6f", s.cfp()) }

// varyIm is the body of Fig 6(c)/(g): quality at k=15 as the master
// relation grows from empty to full.
func (s *Suite) varyIm(id string, ds *gen.Dataset, steps int) (*Report, error) {
	rep := &Report{
		ID:     id,
		Title:  fmt.Sprintf("%s: targets found in top-15 vs ‖Im‖", ds.Name),
		Header: []string{"‖Im‖", "TopKCT", "TopKCTh"},
	}
	sample := s.sample(ds)
	full := ds.Master.Size()
	for i := 0; i <= steps; i++ {
		n := full * i / steps
		sh, err := chase.NewShared(ds.Schema, ds.Master.Truncate(n), ds.Rules)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, algo := range []topkAlgo{topkct, topkcth} {
			found := make([]bool, len(sample))
			if err := par.Each(s.Cfg.Workers, len(sample), func(j int) error {
				e := sample[j]
				g, err := sh.NewGrounding(e.Instance, chase.Options{})
				if err != nil {
					return err
				}
				ok, err := foundInTopK(g, e, 15, algo)
				if err != nil {
					return err
				}
				found[j] = ok
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
	rep.Notes = append(rep.Notes,
		"paper shape: quality grows with ‖Im‖; still useful at ‖Im‖=0 (Med 63%, CFP 64% at k=15)")
	return rep, nil
}

// Fig6c is the Med master-size sweep.
func (s *Suite) Fig6c() (*Report, error) { return s.varyIm("Fig6c", s.med(), 4) }

// Fig6g is the CFP master-size sweep.
func (s *Suite) Fig6g() (*Report, error) { return s.varyIm("Fig6g", s.cfp(), 4) }
