// Package gen synthesises the paper's evaluation datasets with known
// ground truth. The originals (Med, CFP, Rest — Section 7) are
// proprietary or no longer distributable, so each generator reproduces
// the *structure* the algorithms are sensitive to: per-entity tuple
// multiplicity, attribute classes (master-covered, currency-driven,
// correlated, free), noise processes (staleness along a version chain,
// nulls, typos), master-data coverage, and rule sets with the same
// form-(1)/form-(2) split. See DESIGN.md for the substitution argument.
//
// All generators are deterministic given a seed.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/rule"
)

// Entity is one generated entity: its dirty instance and its true tuple.
type Entity struct {
	ID       string
	Instance *model.EntityInstance
	Truth    *model.Tuple
}

// Dataset bundles everything an experiment needs.
type Dataset struct {
	Name     string
	Schema   *model.Schema
	Entities []Entity
	Master   *model.MasterRelation
	Rules    *rule.Set
}

// EntityConfig parameterises the shared Med/CFP-style generator. The
// schema is laid out as:
//
//	name | version | master attrs | currency attrs | paired attrs | free attrs
//
// name agrees across tuples (the entity-resolution key); version is a
// monotone update counter (the paper's rnds); master attrs carry noisy
// values correctable from master data; currency attrs follow a
// change-point process along the version chain (stale before, true
// after); paired attrs come in (primary, dependent) pairs — the primary
// is mostly null except in one tuple (like MN in the running example),
// the dependent is deduced from the primary's order; free attrs have no
// rules and resolve only by agreement.
type EntityConfig struct {
	Name          string
	NumEntities   int
	AvgTuples     int // mean instance size (geometric-ish, min 1)
	MinTuples     int // lower bound on instance size (0 = 1)
	MaxTuples     int
	MasterAttrs   int     // master-covered attributes
	CurrencyAttrs int     // version-correlated attributes
	PairAttrs     int     // number of (primary, dependent) pairs
	FreeAttrs     int     // rule-less attributes
	MasterCover   float64 // fraction of entities present in master data
	// KeyedOnCurrency is how many master attrs additionally require the
	// first currency attribute as a lookup key (the form-(1)/form-(2)
	// interaction of Exp-1).
	KeyedOnCurrency int
	NullRate        float64 // per-cell null probability (currency/master)
	TypoRate        float64 // stray wrong value at the newest version
	FreeWrongRate   float64 // per-tuple wrong-value probability, free attrs
	PairExtraRate   float64 // probability a second tuple also fills a primary
	// MasterDirty is the probability that a master-covered column of an
	// entity is noisy (needs master data to resolve); clean columns
	// agree on the truth and resolve by the equality axiom alone.
	MasterDirty float64
	// DegradedRate is the fraction of entities with degraded quality:
	// no master row, several-fold null rate and heavy disagreement on
	// the free attributes. Degraded entities are the ones whose targets
	// stay incomplete and deduce few attributes — the bimodal profile
	// the paper's Exp-1 numbers imply (66%% fully complete targets yet
	// only 73%% of attributes deduced overall).
	DegradedRate float64
	// RuleVariants pads each semantic rule into this many equivalent
	// variants, mirroring the paper's observation that per-attribute
	// rules share their LHS (3-4 ARs per attribute).
	RuleVariants int
	// FixedTuples, when positive, gives every entity exactly this many
	// tuples (used by the instance-size-bucket experiment of Fig 7(a)).
	FixedTuples int
	Seed        int64
}

// MedConfig mirrors the paper's Med dataset: ~30 attributes, 2.7K
// entities, ~10K tuples, master 2.4K×5, 105 ARs (90 form-1, 15 form-2).
func MedConfig() EntityConfig {
	return EntityConfig{
		Name:            "Med",
		NumEntities:     2700,
		AvgTuples:       4,
		MaxTuples:       83,
		MasterAttrs:     5,
		CurrencyAttrs:   12,
		PairAttrs:       4,
		FreeAttrs:       4,
		MasterCover:     0.95,
		KeyedOnCurrency: 2,
		NullRate:        0.01,
		TypoRate:        0.003,
		FreeWrongRate:   0.008,
		PairExtraRate:   0.15,
		MasterDirty:     0.35,
		DegradedRate:    0.30,
		RuleVariants:    3,
		Seed:            1,
	}
}

// CFPConfig mirrors the paper's CFP dataset: 22 attributes, 100
// entities, ~500 tuples, master 55×17, 43 ARs (28 form-1, 15 form-2).
func CFPConfig() EntityConfig {
	return EntityConfig{
		Name:            "CFP",
		NumEntities:     100,
		AvgTuples:       5,
		MinTuples:       2,
		MaxTuples:       15,
		MasterAttrs:     5,
		CurrencyAttrs:   8,
		PairAttrs:       2,
		FreeAttrs:       4,
		MasterCover:     0.75,
		KeyedOnCurrency: 2,
		NullRate:        0.01,
		TypoRate:        0.003,
		FreeWrongRate:   0.008,
		PairExtraRate:   0.5,
		MasterDirty:     0.45,
		DegradedRate:    0.24,
		RuleVariants:    2,
		Seed:            2,
	}
}

// attrLayout computes the schema layout of a config.
type attrLayout struct {
	name     int
	version  int
	master   []int
	currency []int
	primary  []int
	depend   []int
	free     []int
	attrs    []string
}

func layout(cfg EntityConfig) attrLayout {
	var l attrLayout
	add := func(name string) int {
		l.attrs = append(l.attrs, name)
		return len(l.attrs) - 1
	}
	l.name = add("name")
	l.version = add("version")
	for i := 0; i < cfg.MasterAttrs; i++ {
		l.master = append(l.master, add(fmt.Sprintf("m%d", i)))
	}
	for i := 0; i < cfg.CurrencyAttrs; i++ {
		l.currency = append(l.currency, add(fmt.Sprintf("c%d", i)))
	}
	for i := 0; i < cfg.PairAttrs; i++ {
		l.primary = append(l.primary, add(fmt.Sprintf("p%d", i)))
		l.depend = append(l.depend, add(fmt.Sprintf("d%d", i)))
	}
	for i := 0; i < cfg.FreeAttrs; i++ {
		l.free = append(l.free, add(fmt.Sprintf("f%d", i)))
	}
	return l
}

// Generate builds the dataset of an EntityConfig.
func Generate(cfg EntityConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	l := layout(cfg)
	schema := model.MustSchema(cfg.Name, l.attrs...)

	// Master schema: a key column per lookup key plus the master attrs.
	masterAttrs := []string{"name", "c0"}
	for i := range l.master {
		masterAttrs = append(masterAttrs, fmt.Sprintf("m%d", i))
	}
	masterSchema := model.MustSchema(cfg.Name+"_master", masterAttrs...)
	master := model.NewMasterRelation(masterSchema)

	ds := &Dataset{Name: cfg.Name, Schema: schema, Master: master}

	for e := 0; e < cfg.NumEntities; e++ {
		id := fmt.Sprintf("%s-e%04d", cfg.Name, e)
		truth := model.NewTuple(schema)
		truth.SetAt(l.name, model.S(id))

		// Degraded entities: sparse, noisy and absent from master data.
		degraded := rng.Float64() < cfg.DegradedRate
		nullRate, freeWrong, masterDirty := cfg.NullRate, cfg.FreeWrongRate, cfg.MasterDirty
		if degraded {
			nullRate *= 3
			freeWrong = 0.35
			masterDirty = 0.9
		}

		n := 1 + geometric(rng, cfg.AvgTuples-1)
		if cfg.FixedTuples > 0 {
			n = cfg.FixedTuples
		}
		if n == 1 && rng.Float64() < 0.7 {
			// Singletons carry almost no signal; keep them rare (the
			// paper's instances average 4 tuples).
			n = 1 + geometric(rng, cfg.AvgTuples-1)
		}
		if n < cfg.MinTuples {
			n = cfg.MinTuples
		}
		if n > cfg.MaxTuples {
			n = cfg.MaxTuples
		}
		truth.SetAt(l.version, model.I(int64(n)))

		// True values.
		for _, a := range l.master {
			truth.SetAt(a, val(rng, schema.Attr(a), e, "true"))
		}
		for _, a := range l.currency {
			truth.SetAt(a, val(rng, schema.Attr(a), e, "true"))
		}
		for i := range l.primary {
			truth.SetAt(l.primary[i], val(rng, schema.Attr(l.primary[i]), e, "true"))
			truth.SetAt(l.depend[i], val(rng, schema.Attr(l.depend[i]), e, "true"))
		}
		for _, a := range l.free {
			truth.SetAt(a, val(rng, schema.Attr(a), e, "true"))
		}

		// Change points: currency attr values switch from a stale value
		// to the true one at a random version.
		change := make([]int, len(l.currency))
		stale := make([]model.Value, len(l.currency))
		for i := range l.currency {
			// Values usually change early in an entity's history, so the
			// majority of tuples already carry the current value (this is
			// also what makes plain voting a non-trivial baseline).
			change[i] = 1 + rng.Intn(1+n/3)
			stale[i] = val(rng, schema.Attr(l.currency[i]), e, "old")
		}

		// Which master columns are dirty for this entity, and a small
		// noise pool so dirty cells occasionally agree.
		dirty := make([]bool, len(l.master))
		noisePool := make([][2]model.Value, len(l.master))
		for i := range l.master {
			dirty[i] = rng.Float64() < masterDirty
			a := schema.Attr(l.master[i])
			noisePool[i] = [2]model.Value{val(rng, a, e, "n0x"), val(rng, a, e, "n1x")}
		}

		// Which tuple carries the primaries (MN-like: usually just one).
		primOwner := rng.Intn(n)

		ie := model.NewEntityInstance(schema)
		for v := 1; v <= n; v++ {
			t := model.NewTuple(schema)
			t.SetAt(l.name, model.S(id))
			t.SetAt(l.version, model.I(int64(v)))
			for i, a := range l.currency {
				switch {
				case rng.Float64() < nullRate:
					// leave null
				case v == n && rng.Float64() < cfg.TypoRate:
					t.SetAt(a, val(rng, schema.Attr(a), e, fmt.Sprintf("typo%d", v)))
				case v >= change[i]:
					t.SetAt(a, truth.At(a))
				default:
					t.SetAt(a, stale[i])
				}
			}
			for i, a := range l.master {
				// Clean master columns agree on the truth; dirty ones mix
				// the truth with values from a small noise pool and need
				// the master data (or luck) to resolve.
				r := rng.Float64()
				switch {
				case r < nullRate:
					// null
				case !dirty[i] || r < nullRate+0.35:
					t.SetAt(a, truth.At(a))
				default:
					t.SetAt(a, noisePool[i][rng.Intn(2)])
				}
			}
			for i := range l.primary {
				if v-1 == primOwner || rng.Float64() < cfg.PairExtraRate {
					t.SetAt(l.primary[i], truth.At(l.primary[i]))
					t.SetAt(l.depend[i], truth.At(l.depend[i]))
				} else {
					// Tuples without the primary carry a stale dependent.
					if rng.Float64() > nullRate {
						t.SetAt(l.depend[i], val(rng, schema.Attr(l.depend[i]), e, "old"))
					}
				}
			}
			for _, a := range l.free {
				if rng.Float64() < freeWrong {
					t.SetAt(a, val(rng, schema.Attr(a), e, fmt.Sprintf("alt%d", rng.Intn(2))))
				} else {
					t.SetAt(a, truth.At(a))
				}
			}
			ie.MustAdd(t)
		}

		// The master attributes must not be resolvable by λ to a value
		// that contradicts the master data, or the specification would
		// not be Church-Rosser (the chase's λ value and the form-(2)
		// value would clash). λ resolves an attribute exactly when all
		// non-null cells agree, so whenever they agree on a non-true
		// value, promote one cell to the truth (two distinct values:
		// undecided, master settles it).
		for _, a := range l.master {
			var carriers []int
			distinct := map[string]bool{}
			for i := 0; i < ie.Size(); i++ {
				if v := ie.Value(i, a); !v.IsNull() {
					carriers = append(carriers, i)
					distinct[v.Key()] = true
				}
			}
			if len(distinct) == 1 && !ie.Value(carriers[0], a).Equal(truth.At(a)) {
				ie.Tuple(carriers[0]).SetAt(a, truth.At(a))
			}
		}

		// Master row (covered entities only); master data is correct.
		// Degraded entities are the ones master data has never seen.
		if !degraded && rng.Float64() < cfg.MasterCover {
			row := model.NewTuple(masterSchema)
			row.Set("name", model.S(id))
			row.Set("c0", truth.At(l.currency[0]))
			for i, a := range l.master {
				row.Set(fmt.Sprintf("m%d", i), truth.At(a))
			}
			master.MustAdd(row)
		}

		ds.Entities = append(ds.Entities, Entity{ID: id, Instance: ie, Truth: truth})
	}

	ds.Rules = entityRules(cfg, l, schema, masterSchema)
	return ds
}

// entityRules builds the AR set for an EntityConfig dataset.
func entityRules(cfg EntityConfig, l attrLayout, schema, masterSchema *model.Schema) *rule.Set {
	variants := cfg.RuleVariants
	if variants < 1 {
		variants = 1
	}
	var rules []rule.Rule
	version := schema.Attr(l.version)

	// ϕ1-style: higher version is more current.
	rules = append(rules, &rule.Form1{
		RuleName: "cur-version",
		LHS:      []rule.Pred{rule.Cmp(rule.T1(version), rule.Lt, rule.T2(version))},
		RHS:      version,
	})

	// ϕ2-style: version order propagates to each currency attribute,
	// guarded against nulls (a null in the newer tuple must not beat ϕ7).
	for _, a := range l.currency {
		attr := schema.Attr(a)
		for v := 0; v < variants; v++ {
			var lhs []rule.Pred
			switch v {
			case 0:
				lhs = []rule.Pred{
					rule.Prec(version),
					rule.Cmp(rule.T2(attr), rule.Ne, rule.C(model.NullValue())),
				}
			case 1: // same consequence via the raw version comparison
				lhs = []rule.Pred{
					rule.Cmp(rule.T1(version), rule.Lt, rule.T2(version)),
					rule.Cmp(rule.T2(attr), rule.Ne, rule.C(model.NullValue())),
				}
			default: // explicit null-lowest instance
				lhs = []rule.Pred{
					rule.Cmp(rule.T1(attr), rule.Eq, rule.C(model.NullValue())),
					rule.Cmp(rule.T2(attr), rule.Ne, rule.C(model.NullValue())),
				}
			}
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("cur-%s-%d", attr, v),
				LHS:      lhs,
				RHS:      attr,
			})
		}
	}

	// ϕ5/ϕ10-style: a more accurate primary implies a more accurate
	// dependent (primary and dependent "come together").
	for i := range l.primary {
		p, d := schema.Attr(l.primary[i]), schema.Attr(l.depend[i])
		for v := 0; v < variants; v++ {
			var lhs []rule.Pred
			if v == 0 {
				lhs = []rule.Pred{
					rule.Prec(p),
					rule.Cmp(rule.T2(d), rule.Ne, rule.C(model.NullValue())),
				}
			} else {
				lhs = []rule.Pred{
					rule.Cmp(rule.T1(p), rule.Eq, rule.C(model.NullValue())),
					rule.Cmp(rule.T2(p), rule.Ne, rule.C(model.NullValue())),
					rule.Cmp(rule.T2(d), rule.Ne, rule.C(model.NullValue())),
				}
			}
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("pair-%s-%d", d, v),
				LHS:      lhs,
				RHS:      d,
			})
		}
	}

	// Form (2): master lookups. The first KeyedOnCurrency attributes also
	// require the deduced c0 (so they need form-(1) reasoning first —
	// the interaction measured in Fig. 6(e)).
	for i := range l.master {
		attr := schema.Attr(l.master[i])
		conds := []rule.MasterCond{rule.CondMaster("name", "name")}
		if i < cfg.KeyedOnCurrency {
			conds = append(conds, rule.CondMaster(schema.Attr(l.currency[0]), "c0"))
		}
		for v := 0; v < 3; v++ {
			rules = append(rules, &rule.Form2{
				RuleName:   fmt.Sprintf("master-%s-%d", attr, v),
				Conds:      conds,
				TargetAttr: attr,
				MasterAttr: fmt.Sprintf("m%d", i),
			})
		}
	}

	return rule.MustSet(schema, masterSchema, rules...)
}

// geometric draws from a geometric-ish distribution with the given mean.
func geometric(rng *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / float64(mean+1)
	n := 0
	for rng.Float64() > p && n < 1000 {
		n++
	}
	return n
}

// val makes a deterministic-looking string value for (attr, entity, tag).
// The random prefix keeps the lexicographic order of values uncorrelated
// with their truthfulness, so that value comparisons carry no accidental
// accuracy signal (rule mining would otherwise pick it up).
func val(rng *rand.Rand, attr string, entity int, tag string) model.Value {
	return model.S(fmt.Sprintf("%03d-%s.%d.%s", rng.Intn(1000), attr, entity, tag))
}
