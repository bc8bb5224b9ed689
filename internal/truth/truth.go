// Package truth implements the truth-discovery baselines the paper
// compares against in Exp-5 (Section 7):
//
//   - Voting: per attribute, pick the most frequent non-null value — the
//     naive baseline, equivalent to TopKCT with an empty rule set and
//     occurrence-count preference.
//   - DeduceOrder [Fan, Geerts, Tang, Yu — ICDE 2013]: conflict
//     resolution by reasoning about data currency and consistency. It is
//     emulated by the chase restricted to the currency constraints and
//     constant CFDs of the rule set (both expressible as ARs,
//     Sections 1–2): attributes without decisive currency/consistency
//     information stay undecided, which is why the paper measures 100%
//     precision but low recall for it.
//   - CopyCEF [Dong, Berti-Equille, Srivastava — PVLDB 2009]: Bayesian
//     truth discovery over multiple data sources with source-accuracy
//     estimation and copier detection. It consumes source-attributed
//     claims rather than an entity instance.
package truth

import (
	"math"
	"sort"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/rule"
)

// Voting returns, for each attribute of the instance, the most frequent
// non-null value. Ties are broken deterministically toward the largest
// value (numerically when comparable, else lexicographically): for
// monotone attributes like update counters every value is distinct, and
// "largest on ties" is the natural refinement. Attributes with no
// non-null values stay null.
func Voting(ie *model.EntityInstance) *model.Tuple {
	te := model.NewTuple(ie.Schema())
	for a := 0; a < ie.Schema().Arity(); a++ {
		vals, counts := model.ActiveDomain(ie, nil, ie.Schema().Attr(a))
		if len(vals) == 0 || counts[0] == 0 {
			continue
		}
		best := vals[0]
		for i := 1; i < len(vals) && counts[i] == counts[0]; i++ {
			if c, ok := vals[i].Compare(best); ok && c > 0 {
				best = vals[i]
			} else if !ok && vals[i].String() > best.String() {
				best = vals[i]
			}
		}
		te.SetAt(a, best)
	}
	return te
}

// DeduceOrder emulates the currency/consistency reasoning of [14] on a
// single entity instance: it runs the chase with only the given currency
// rules (form-(1) ARs expressing currency orders) and constant CFDs
// (expressed as form-(2) ARs over a constant master relation; see the
// Remark in Section 2.1). The returned target may be incomplete —
// DeduceOrder never guesses.
func DeduceOrder(ie *model.EntityInstance, im *model.MasterRelation, rules *rule.Set) (*model.Tuple, error) {
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rules}, chase.Options{})
	if err != nil {
		return nil, err
	}
	if res := g.Run(nil); res.CR {
		return res.Target, nil
	}
	// Conflicting currency information: resolve nothing, as [14]
	// reports no answer for irreconcilable orders.
	return model.NewTuple(ie.Schema()), nil
}

// Claim is one source's assertion about one attribute of one entity —
// the input unit of copyCEF.
type Claim struct {
	Source string
	Entity string
	Attr   string
	Val    model.Value
}

// CopyCEFOptions tunes the Bayesian iteration.
type CopyCEFOptions struct {
	// Iterations of the accuracy/truth fixpoint; 0 means 20.
	Iterations int
	// InitialAccuracy of every source; 0 means 0.8.
	InitialAccuracy float64
	// NFalse is the assumed number of wrong values per attribute (the
	// "n" of Dong et al.'s accuracy model); 0 means 10.
	NFalse float64
	// CopyPrior is the prior probability that a source copies another;
	// 0 means 0.1.
	CopyPrior float64
}

// CopyCEFResult reports the discovered truth.
type CopyCEFResult struct {
	// Truth maps entity -> attr -> chosen value.
	Truth map[string]map[string]model.Value
	// Confidence maps entity -> attr -> probability of the chosen value.
	Confidence map[string]map[string]float64
	// Accuracy is the final per-source accuracy estimate.
	Accuracy map[string]float64
	// Copier maps source pairs "a|b" to the estimated probability that a
	// copies from b (only pairs with overlap are present).
	Copier map[string]float64
}

// Prob returns the estimated probability that value v is the true value
// of (entity, attr); values never claimed score 0.
func (r *CopyCEFResult) Prob(entity, attr string, v model.Value) float64 {
	if r.Truth[entity] == nil {
		return 0
	}
	if tv, ok := r.Truth[entity][attr]; ok && tv.Equal(v) {
		return r.Confidence[entity][attr]
	}
	return 0
}

// CopyCEF runs the source-accuracy + copy-detection truth discovery of
// Dong et al. over the claims: iteratively (1) estimate pairwise copying
// from suspicious agreement on uncommon values, (2) vote for values with
// copy-discounted, accuracy-derived weights, (3) re-estimate source
// accuracy from the vote outcome.
func CopyCEF(claims []Claim, opts CopyCEFOptions) *CopyCEFResult {
	if opts.Iterations == 0 {
		opts.Iterations = 20
	}
	if opts.InitialAccuracy == 0 {
		opts.InitialAccuracy = 0.8
	}
	if opts.NFalse == 0 {
		opts.NFalse = 10
	}
	if opts.CopyPrior == 0 {
		opts.CopyPrior = 0.1
	}

	type item struct{ entity, attr string }
	// claimsOf[item][valueKey] = sources claiming it; val kept alongside.
	bySource := map[string]map[item]model.Value{}
	items := map[item]map[string][]string{}
	itemVal := map[item]map[string]model.Value{}
	var sources []string
	seenSource := map[string]bool{}
	for _, c := range claims {
		if c.Val.IsNull() {
			continue
		}
		it := item{c.Entity, c.Attr}
		if items[it] == nil {
			items[it] = map[string][]string{}
			itemVal[it] = map[string]model.Value{}
		}
		k := c.Val.Key()
		items[it][k] = append(items[it][k], c.Source)
		itemVal[it][k] = c.Val
		if bySource[c.Source] == nil {
			bySource[c.Source] = map[item]model.Value{}
			if !seenSource[c.Source] {
				seenSource[c.Source] = true
				sources = append(sources, c.Source)
			}
		}
		bySource[c.Source][it] = c.Val
	}
	sort.Strings(sources)
	itemList := make([]item, 0, len(items))
	for it := range items {
		itemList = append(itemList, it)
	}
	sort.Slice(itemList, func(i, j int) bool {
		if itemList[i].entity != itemList[j].entity {
			return itemList[i].entity < itemList[j].entity
		}
		return itemList[i].attr < itemList[j].attr
	})

	acc := map[string]float64{}
	for _, s := range sources {
		acc[s] = opts.InitialAccuracy
	}
	// truthKey[item] = current best value key; prob[item][key].
	truthKey := map[item]string{}
	probs := map[item]map[string]float64{}
	copier := map[string]float64{}

	clamp := func(x float64) float64 {
		return math.Min(0.99, math.Max(0.01, x))
	}

	for iter := 0; iter < opts.Iterations; iter++ {
		// (1) Copy detection: for each ordered source pair, a Bayesian
		// update from their overlapping claims — agreement on the current
		// truth is weak evidence of copying, agreement on a non-truth
		// value is strong evidence, disagreement is evidence of
		// independence.
		if iter > 0 {
			for _, s1 := range sources {
				for _, s2 := range sources {
					if s1 >= s2 {
						continue
					}
					var kTrue, kFalse, kDiff int
					for it, v1 := range bySource[s1] {
						v2, ok := bySource[s2][it]
						if !ok {
							continue
						}
						switch {
						case !v1.Equal(v2):
							kDiff++
						case truthKey[it] == v1.Key():
							kTrue++
						default:
							kFalse++
						}
					}
					if kTrue+kFalse+kDiff == 0 {
						continue
					}
					// Log-likelihood ratio of "copying" vs "independent".
					// A copier reproduces its source wholesale — errors
					// included — so near-total agreement is the copying
					// signature, while independent sources disagree
					// whenever exactly one of them errs. Disagreements
					// therefore carry strong independence evidence and
					// each agreement only slight copying evidence; shared
					// false values (relative to the current truth
					// estimate) add extra weight, but the verdict must not
					// hinge on the truth estimate, which copier cliques
					// can themselves distort.
					llr := math.Log(opts.CopyPrior / (1 - opts.CopyPrior))
					llr += float64(kTrue+kFalse) * math.Log(1.1)
					llr += float64(kFalse) * math.Log(1.5)
					llr += float64(kDiff) * math.Log(0.05)
					p := 1 / (1 + math.Exp(-llr))
					copier[s1+"|"+s2] = p
				}
			}
		}

		// (2) Vote with copy-discounted accuracy weights.
		for _, it := range itemList {
			scores := map[string]float64{}
			for k, srcs := range items[it] {
				score := 0.0
				for _, s := range srcs {
					w := math.Log(opts.NFalse * clamp(acc[s]) / (1 - clamp(acc[s])))
					// Discount by the probability that s copied this value
					// from another source claiming it.
					indep := 1.0
					for _, s2 := range srcs {
						if s2 == s {
							continue
						}
						key := s + "|" + s2
						if s2 < s {
							key = s2 + "|" + s
						}
						if p, ok := copier[key]; ok {
							indep *= 1 - 0.8*p
						}
					}
					score += w * indep
				}
				scores[k] = score
			}
			// Softmax over claimed values (max-shifted for stability).
			maxSc := math.Inf(-1)
			for _, sc := range scores {
				if sc > maxSc {
					maxSc = sc
				}
			}
			sum := 0.0
			for _, sc := range scores {
				sum += math.Exp(sc - maxSc)
			}
			pr := map[string]float64{}
			bestK, bestP := "", -1.0
			keys := make([]string, 0, len(scores))
			for k := range scores {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				p := math.Exp(scores[k]-maxSc) / sum
				pr[k] = p
				if p > bestP {
					bestK, bestP = k, p
				}
			}
			probs[it] = pr
			truthKey[it] = bestK
		}

		// (3) Re-estimate source accuracy as the mean probability of the
		// source's claims.
		for _, s := range sources {
			sum, n := 0.0, 0
			for it, v := range bySource[s] {
				sum += probs[it][v.Key()]
				n++
			}
			if n > 0 {
				acc[s] = clamp(sum / float64(n))
			}
		}
	}

	out := &CopyCEFResult{
		Truth:      map[string]map[string]model.Value{},
		Confidence: map[string]map[string]float64{},
		Accuracy:   acc,
		Copier:     copier,
	}
	for _, it := range itemList {
		if out.Truth[it.entity] == nil {
			out.Truth[it.entity] = map[string]model.Value{}
			out.Confidence[it.entity] = map[string]float64{}
		}
		k := truthKey[it]
		out.Truth[it.entity][it.attr] = itemVal[it][k]
		out.Confidence[it.entity][it.attr] = probs[it][k]
	}
	return out
}
