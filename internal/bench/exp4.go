package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/topk"
)

// synPoint measures the three top-k algorithms (and IsCR) on one
// synthetic configuration. The timings cover the full candidate search
// including every chase-based check, as in Exp-4; grounding
// (Instantiation) is shared preprocessing and reported separately.
func synPoint(cfg gen.SynConfig, k int) (row []string, err error) {
	ds := gen.GenerateSyn(cfg)
	e := ds.Entities[0]

	t0 := time.Now()
	g, err := chase.NewGrounding(chase.Spec{Ie: e.Instance, Im: ds.Master, Rules: ds.Rules}, timingOpts)
	if err != nil {
		return nil, err
	}
	groundT := time.Since(t0)

	t0 = time.Now()
	res := g.Run(nil)
	iscrT := time.Since(t0)
	if !res.CR {
		return nil, fmt.Errorf("bench: Syn point not Church-Rosser: %s", res.Conflict)
	}
	rjT, ctT, hT, err := searchTimes(g, res.Target, k)
	if err != nil {
		return nil, err
	}
	return []string{ms(rjT), ms(ctT), ms(hT), ms(iscrT), ms(groundT)}, nil
}

// searchTimes times RankJoinCT, TopKCT and TopKCTh back to back on one
// grounding, each searching k candidates from the deduced target te.
// RankJoinCT runs under rankJoinBudget; an overrun still counts as its
// (lower-bound) timing. g must be built with timingOpts: with its
// verdict cache on, TopKCT and TopKCTh would answer most of their
// checks from the verdicts RankJoinCT left, and the columns would time
// the cache, not the algorithms.
func searchTimes(g *chase.Grounding, te *model.Tuple, k int) (rj, ct, th time.Duration, err error) {
	pref := topk.Preference{K: k}
	t0 := time.Now()
	if _, _, err := topk.RankJoinCTOpts(g, te, pref, topk.RankJoinOptions{MaxGenerated: rankJoinBudget}); err != nil && !errors.Is(err, topk.ErrBudget) {
		return 0, 0, 0, err
	}
	rj = time.Since(t0)

	t0 = time.Now()
	if _, _, err := topk.TopKCT(g, te, pref); err != nil {
		return 0, 0, 0, err
	}
	ct = time.Since(t0)

	t0 = time.Now()
	if _, _, err := topk.TopKCTh(g, te, pref); err != nil {
		return 0, 0, 0, err
	}
	return rj, ct, time.Since(t0), nil
}

// timingOpts builds the groundings the timing experiments search. The
// paper's algorithms have no verdict cache, so it is off.
var timingOpts = chase.Options{DisableVerdictCache: true}

var synHeaderTail = []string{"RankJoinCT", "TopKCT", "TopKCTh", "IsCR", "Instantiation"}

// rankJoinBudget bounds RankJoinCT's join-state materialisation in the
// timing experiments; overruns are recorded as (lower-bound) timings, as
// the algorithm's blow-up is itself the finding.
const rankJoinBudget = 300_000

// synSweep times synPoint at each value of one Syn parameter, every
// other parameter at the suite's default: set applies the value to the
// point's generator config and search k. The report's first column,
// headed param, holds the swept value.
func (s *Suite) synSweep(id, title, param string, vals []int, set func(cfg *gen.SynConfig, k *int, v int)) (*Report, error) {
	rep := &Report{
		ID:     id,
		Title:  title,
		Header: append([]string{param}, synHeaderTail...),
	}
	for _, v := range vals {
		cfg := gen.SynDefault()
		cfg.Tuples, cfg.Im, cfg.Rules = s.Cfg.SynTuples, s.Cfg.SynIm, s.Cfg.SynSigma
		k := s.Cfg.SynK
		set(&cfg, &k, v)
		row, err := synPoint(cfg, k)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, append([]string{fmt.Sprintf("%d", v)}, row...))
	}
	return rep, nil
}

// Fig6i sweeps ‖Ie‖ on Syn (paper: 300..1500; at 1500 TopKCTh 159ms,
// TopKCT 271ms, RankJoinCT 1983ms).
func (s *Suite) Fig6i() (*Report, error) {
	rep, err := s.synSweep("Fig6i", "Syn: elapsed time vs ‖Ie‖", "‖Ie‖", s.Cfg.SynSizes,
		func(cfg *gen.SynConfig, _ *int, n int) { cfg.Tuples = n })
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "paper shape: TopKCTh < TopKCT << RankJoinCT, all growing with ‖Ie‖")
	return rep, nil
}

// Fig6j sweeps ‖Σ‖ on Syn (paper: 20..100).
func (s *Suite) Fig6j() (*Report, error) {
	return s.synSweep("Fig6j", "Syn: elapsed time vs ‖Σ‖", "‖Σ‖", s.Cfg.SynSigmas,
		func(cfg *gen.SynConfig, _ *int, nr int) { cfg.Rules = nr })
}

// Fig6k sweeps ‖Im‖ on Syn (paper: 100..500).
func (s *Suite) Fig6k() (*Report, error) {
	return s.synSweep("Fig6k", "Syn: elapsed time vs ‖Im‖", "‖Im‖", s.Cfg.SynIms,
		func(cfg *gen.SynConfig, _ *int, im int) { cfg.Im = im })
}

// Fig6l sweeps k on Syn (paper: 5..25).
func (s *Suite) Fig6l() (*Report, error) {
	return s.synSweep("Fig6l", "Syn: elapsed time vs k", "k", s.Cfg.SynKs,
		func(_ *gen.SynConfig, k *int, v int) { *k = v })
}

// Fig7a buckets Med-style entities by instance size and reports the
// mean per-entity top-k time of the three algorithms at k=15.
func (s *Suite) Fig7a() (*Report, error) {
	rep := &Report{
		ID:     "Fig7a",
		Title:  "Med: elapsed time vs instance size",
		Header: []string{"‖Ie‖ bucket", "RankJoinCT", "TopKCT", "TopKCTh"},
	}
	for _, bucket := range s.Cfg.MedBuckets {
		cfg := gen.MedConfig()
		cfg.NumEntities = 20
		cfg.FixedTuples = (bucket[0] + bucket[1]) / 2
		cfg.Seed = int64(1000 + bucket[0])
		ds := gen.Generate(cfg)
		sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
		if err != nil {
			return nil, err
		}
		rj, ct, h, err := s.timedTopK(ds.Entities, func(e gen.Entity) (*chase.Grounding, error) {
			return sh.NewGrounding(e.Instance, timingOpts)
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("[%d,%d]", bucket[0], bucket[1]),
			ms(rj.Mean()), ms(ct.Mean()), ms(h.Mean()),
		})
	}
	return rep, nil
}

// timedTopK measures the three top-k algorithms per entity at k=15.
// By default the loop is sequential so the timings match the paper's
// methodology; an explicit Config.Workers fans entities out, with each
// entity's segments timed inside its own worker (contention can
// inflate the means, but the comparison between algorithms is
// unaffected since all three run in the same worker back to back).
func (s *Suite) timedTopK(entities []gen.Entity, ground func(gen.Entity) (*chase.Grounding, error)) (rj, ct, h stats.Timing, err error) {
	type sample struct {
		ok         bool
		rj, ct, th time.Duration
	}
	samples := make([]sample, len(entities))
	err = par.Each(s.timingWorkers(), len(entities), func(i int) error {
		g, err := ground(entities[i])
		if err != nil {
			return err
		}
		res := g.Run(nil)
		if !res.CR {
			return nil
		}
		sm := &samples[i]
		sm.rj, sm.ct, sm.th, err = searchTimes(g, res.Target, 15)
		sm.ok = err == nil
		return err
	})
	if err != nil {
		return rj, ct, h, err
	}
	for _, sm := range samples {
		if !sm.ok {
			continue
		}
		rj.Add(sm.rj)
		ct.Add(sm.ct)
		h.Add(sm.th)
	}
	return rj, ct, h, nil
}

// Fig7b reports mean per-entity top-k time on Med as ‖Im‖ grows.
func (s *Suite) Fig7b() (*Report, error) {
	rep := &Report{
		ID:     "Fig7b",
		Title:  "Med: elapsed time vs ‖Im‖ (mean per entity, k=15)",
		Header: []string{"‖Im‖", "RankJoinCT", "TopKCT", "TopKCTh"},
	}
	ds := s.med()
	sample := ds.Entities
	if len(sample) > 150 {
		sample = sample[:150]
	}
	full := ds.Master.Size()
	for i := 0; i <= 4; i++ {
		n := full * i / 4
		sh, err := chase.NewShared(ds.Schema, ds.Master.Truncate(n), ds.Rules)
		if err != nil {
			return nil, err
		}
		rj, ct, h, err := s.timedTopK(sample, func(e gen.Entity) (*chase.Grounding, error) {
			return sh.NewGrounding(e.Instance, timingOpts)
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", n), ms(rj.Mean()), ms(ct.Mean()), ms(h.Mean()),
		})
	}
	return rep, nil
}

// IsCRTiming substantiates the §5 claim that IsCR runs in about 10ms or
// less per entity, on the Med entities.
func (s *Suite) IsCRTiming() (*Report, error) {
	rep := &Report{
		ID:     "IsCR-timing",
		Title:  "IsCR elapsed time per Med entity",
		Header: []string{"metric", "value"},
	}
	ds := s.med()
	sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
	if err != nil {
		return nil, err
	}
	durs := make([]time.Duration, len(ds.Entities))
	if err := par.Each(s.timingWorkers(), len(ds.Entities), func(i int) error {
		g, err := sh.NewGrounding(ds.Entities[i].Instance, chase.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		g.Run(nil)
		durs[i] = time.Since(t0)
		return nil
	}); err != nil {
		return nil, err
	}
	var t stats.Timing
	for _, d := range durs {
		t.Add(d)
	}
	rep.Rows = append(rep.Rows, []string{"mean", ms(t.Mean())})
	rep.Rows = append(rep.Rows, []string{"p99", ms(t.Percentile(99))})
	rep.Notes = append(rep.Notes, "paper: IsCR takes at most 10ms")
	return rep, nil
}
