package bench

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/framework"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/topk"
)

// interaction is the body of Fig 6(d)/(h): per entity, simulate the
// user study of Exp-3 — when the deduced target is incomplete and the
// truth is not in the top-k, reveal the accurate value of one open
// attribute and re-run — and report the cumulative fraction of targets
// settled within h rounds.
func (s *Suite) interaction(id string, ds *gen.Dataset, maxRounds int) (*Report, error) {
	rep := &Report{
		ID:     id,
		Title:  fmt.Sprintf("%s: targets found vs interaction rounds (k=15)", ds.Name),
		Header: []string{"rounds h", "targets found"},
	}
	sample := s.sample(ds)
	sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
	if err != nil {
		return nil, err
	}
	// rounds[i] holds the rounds entity i needed, or -1 when unresolved.
	rounds := make([]int, len(sample))
	if err := par.Each(s.Cfg.Workers, len(sample), func(i int) error {
		e := sample[i]
		rounds[i] = -1
		g, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			return err
		}
		oracle := &framework.GroundTruthOracle{Truth: e.Truth}
		out, err := framework.Run(g, framework.Config{
			Pref:      topk.Preference{K: 15, MaxChecks: 4000},
			MaxRounds: maxRounds,
		}, oracle)
		if err != nil {
			// Not Church-Rosser: counts as never found.
			return nil
		}
		if out.Found && out.Target.EqualTo(e.Truth) {
			rounds[i] = out.Rounds
		}
		return nil
	}); err != nil {
		return nil, err
	}
	roundsNeeded := make([]int, 0, len(sample))
	unresolved := 0
	for _, r := range rounds {
		if r < 0 {
			unresolved++
		} else {
			roundsNeeded = append(roundsNeeded, r)
		}
	}
	total := len(sample)
	for h := 0; h <= maxRounds; h++ {
		found := 0
		for _, r := range roundsNeeded {
			if r <= h {
				found++
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%.0f%%", 100*float64(found)/float64(total)),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d of %d entities not settled within %d rounds", unresolved, total, maxRounds),
		"paper: all targets found within 3 rounds (Med) / 4 rounds (CFP)")
	return rep, nil
}

// Fig6d is the Med interaction experiment (paper: ≤3 rounds).
func (s *Suite) Fig6d() (*Report, error) { return s.interaction("Fig6d", s.med(), 3) }

// Fig6h is the CFP interaction experiment (paper: ≤4 rounds).
func (s *Suite) Fig6h() (*Report, error) { return s.interaction("Fig6h", s.cfp(), 4) }
