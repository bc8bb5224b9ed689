package bench

import (
	"fmt"
	"strings"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/rule"
	"repro/internal/stats"
	"repro/internal/topk"
	"repro/internal/truth"
)

// truthCurrencyRules is the rule subset available to DeduceOrder on
// Rest: genuine currency constraints only.
func truthCurrencyRules(ds *gen.RestDataset) *rule.Set {
	return gen.RestCurrencyRules(ds)
}

// cfpCurrencyRules extracts the currency constraints from a generated
// entity dataset (the "cur-" rules), which is what [14] can express.
func cfpCurrencyRules(ds *gen.Dataset) *rule.Set {
	return ds.Rules.Filter(func(r rule.Rule) bool {
		return strings.HasPrefix(r.Name(), "cur-")
	})
}

// Table4 reproduces the truth-discovery comparison on Rest (Exp-5):
// precision/recall/F-measure of concluding which restaurants are
// closed, for DeduceOrder, voting, copyCEF, and TopKCT with the
// preference derived from voting and from copyCEF probabilities (k=1).
func (s *Suite) Table4() (*Report, error) {
	ds := s.rest()
	rep := &Report{
		ID:     "Table4",
		Title:  "truth discovery on Rest (closed?)",
		Header: []string{"method", "precision", "recall", "F-measure"},
	}

	evaluate := func(name string, concludedClosed map[string]bool) {
		tp, fp, fn := 0, 0, 0
		for id, g := range ds.Closed {
			r := concludedClosed[id]
			switch {
			case g && r:
				tp++
			case !g && r:
				fp++
			case g && !r:
				fn++
			}
		}
		m := stats.PRFOf(tp, fp, fn)
		rep.Rows = append(rep.Rows, []string{name,
			fmt.Sprintf("%.2f", m.Precision),
			fmt.Sprintf("%.2f", m.Recall),
			fmt.Sprintf("%.2f", m.F1)})
	}

	boolOf := func(v model.Value) (bool, bool) {
		if v.Kind() == model.Bool {
			return v.Bool(), true
		}
		return false, false
	}

	// DeduceOrder: currency constraints only.
	curRules := truthCurrencyRules(ds)
	deduceClosed := make([]bool, len(ds.Entities))
	if err := par.Each(s.Cfg.Workers, len(ds.Entities), func(i int) error {
		te, err := truth.DeduceOrder(ds.Entities[i].Instance, nil, curRules)
		if err != nil {
			return err
		}
		if v, _ := te.Get("closed"); !v.IsNull() {
			if b, ok := boolOf(v); ok && b {
				deduceClosed[i] = true
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	deduceOrder := map[string]bool{}
	for i, e := range ds.Entities {
		if deduceClosed[i] {
			deduceOrder[e.ID] = true
		}
	}
	evaluate("DeduceOrder", deduceOrder)

	// Voting over the per-source claims.
	voting := map[string]bool{}
	votesFor := map[string][2]int{} // closed, open
	for _, c := range ds.Claims {
		b, ok := boolOf(c.Val)
		if !ok {
			continue
		}
		v := votesFor[c.Entity]
		if b {
			v[0]++
		} else {
			v[1]++
		}
		votesFor[c.Entity] = v
	}
	for id, v := range votesFor {
		if v[0] > v[1] {
			voting[id] = true
		}
	}
	evaluate("voting", voting)

	// copyCEF over the same claims.
	cef := truth.CopyCEF(ds.Claims, truth.CopyCEFOptions{})
	cefClosed := map[string]bool{}
	for _, e := range ds.Entities {
		if v, ok := cef.Truth[e.ID]["closed"]; ok {
			if b, ok2 := boolOf(v); ok2 && b {
				cefClosed[e.ID] = true
			}
		}
	}
	evaluate("copyCEF", cefClosed)

	// TopKCT (k=1) with the accuracy rules, preference from voting
	// (value occurrences) or from copyCEF probabilities.
	domains := map[string][]model.Value{"closed": {model.B(true), model.B(false)}}
	sh, err := chase.NewShared(ds.Schema, nil, ds.Rules)
	if err != nil {
		return nil, err
	}
	run := func(weight func(e string) func(string, model.Value) float64) (map[string]bool, error) {
		closed := make([]bool, len(ds.Entities))
		if err := par.Each(s.Cfg.Workers, len(ds.Entities), func(i int) error {
			e := ds.Entities[i]
			g, err := sh.NewGrounding(e.Instance, chase.Options{})
			if err != nil {
				return err
			}
			res := g.Run(nil)
			if !res.CR {
				return nil
			}
			v, _ := res.Target.Get("closed")
			if v.IsNull() {
				pref := topk.Preference{K: 1, Domains: domains}
				if weight != nil {
					pref.Weight = weight(e.ID)
				}
				cands, _, err := topk.TopKCT(g, res.Target, pref)
				if err != nil {
					return err
				}
				if len(cands) > 0 {
					v, _ = cands[0].Tuple.Get("closed")
				}
			}
			if b, ok := boolOf(v); ok && b {
				closed[i] = true
			}
			return nil
		}); err != nil {
			return nil, err
		}
		out := map[string]bool{}
		for i, e := range ds.Entities {
			if closed[i] {
				out[e.ID] = true
			}
		}
		return out, nil
	}
	tkVote, err := run(nil) // occurrence counting == voting preference
	if err != nil {
		return nil, err
	}
	evaluate("TopKCT (voting pref)", tkVote)

	tkCEF, err := run(func(entity string) func(string, model.Value) float64 {
		return func(attr string, v model.Value) float64 {
			if attr == "closed" {
				return cef.Prob(entity, "closed", v)
			}
			return 0
		}
	})
	if err != nil {
		return nil, err
	}
	evaluate("TopKCT (copyCEF pref)", tkCEF)

	rep.Notes = append(rep.Notes,
		"paper: DeduceOrder 1.0/0.15/0.26, voting 0.62/0.92/0.74, copyCEF 0.76/0.85/0.80,",
		"       TopKCT(voting) 0.73/0.95/0.82, TopKCT(copyCEF) 0.81/0.88/0.85")
	return rep, nil
}

// Exp5CFP reproduces the CFP side of Exp-5: the fraction of entities
// whose complete true target is derived by voting, DeduceOrder and
// TopKCT at k=1 (paper: 37%, 0%, 70%).
func (s *Suite) Exp5CFP() (*Report, error) {
	ds := s.cfp()
	rep := &Report{
		ID:     "Exp5-CFP",
		Title:  "CFP: complete true targets derived (k=1)",
		Header: []string{"method", "targets correct"},
	}

	curRules := cfpCurrencyRules(ds)
	sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
	if err != nil {
		return nil, err
	}
	type verdicts struct{ vote, dord, tk bool }
	per := make([]verdicts, len(ds.Entities))
	if err := par.Each(s.Cfg.Workers, len(ds.Entities), func(i int) error {
		e := ds.Entities[i]
		// Voting.
		per[i].vote = truth.Voting(e.Instance).EqualTo(e.Truth)

		// DeduceOrder with currency rules only.
		te, err := truth.DeduceOrder(e.Instance, nil, curRules)
		if err != nil {
			return err
		}
		per[i].dord = te.EqualTo(e.Truth)

		// TopKCT k=1 with the full rule set.
		g, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			return err
		}
		found, err := foundInTopK(g, e, 1, topkct)
		if err != nil {
			return err
		}
		per[i].tk = found
		return nil
	}); err != nil {
		return nil, err
	}
	var vote, dord, tk stats.Counter
	for _, v := range per {
		vote.Add(v.vote)
		dord.Add(v.dord)
		tk.Add(v.tk)
	}
	rep.Rows = append(rep.Rows, []string{"voting", vote.Percent()})
	rep.Rows = append(rep.Rows, []string{"DeduceOrder", dord.Percent()})
	rep.Rows = append(rep.Rows, []string{"TopKCT (k=1)", tk.Percent()})
	rep.Notes = append(rep.Notes, "paper: voting 37%, DeduceOrder 0%, TopKCT 70%")
	return rep, nil
}
