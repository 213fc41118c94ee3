// Package gen synthesizes the paper's experimental workload (§7.1): an
// extended order relation populated with correlated values, a set Σ of
// seven CFDs whose pattern tableaus carry hundreds to thousands of
// pattern tuples, controlled noise at rate ρ, and the weight protocol
// used by the cost model.
//
// The paper scraped real data from AMAZON and other websites; this
// package is the substitution (README's `cfdgen` section): a deterministic
// generator producing data with the same structural properties — a clean
// Dopt consistent with Σ, a dirty D in which every dirty tuple violates
// at least one CFD, noise that is either a DL-close typo (edit distance
// 1–6) or a value copied from another tuple, and attribute weights drawn
// from [0,a] for dirty cells and [b,1] for clean cells.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// Attribute names of the extended order schema (§7.1): the Fig. 1 schema
// plus country CTY, tax rate VAT, title TT and quantity QTT.
var OrderAttrs = []string{
	"id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip",
	"CTY", "VAT", "TT", "QTT",
}

// Attribute positions, fixed by OrderAttrs.
const (
	AID = iota
	AName
	APR
	AAC
	APN
	ASTR
	ACT
	AST
	AZip
	ACTY
	AVAT
	ATT
	AQTT
)

// Config controls one generated dataset.
type Config struct {
	// Size is the number of order tuples.
	Size int
	// NoiseRate is ρ ∈ [0,1]: the fraction of tuples perturbed.
	NoiseRate float64
	// ConstShare is the fraction of dirty tuples made to violate a
	// constant CFD (Figs. 14–15 vary it); the rest violate a variable
	// CFD. Default 0.5.
	ConstShare float64
	// PatternRows is the approximate total number of pattern tuples
	// across the tableaus of Σ (the paper uses 300–5,000). Default 600.
	PatternRows int
	// Customers and Items bound the respective pools; defaults derive
	// from Size so that ids and addresses repeat across orders (variable
	// CFDs then have partners to violate with).
	Customers, Items int
	// MaxNoisyAttrs caps perturbed attributes per dirty tuple. Default 2.
	MaxNoisyAttrs int
	// Weights enables the weight protocol; WeightA and WeightB are the
	// paper's a and b (defaults 0.6 and 0.5). Without Weights all
	// weights stay 1 (§3.2 remark 1).
	Weights          bool
	WeightA, WeightB float64
	// Seed drives all randomness; the same Config yields the same data.
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.Size <= 0 {
		return c, fmt.Errorf("gen: size %d must be positive", c.Size)
	}
	if !(0 <= c.NoiseRate && c.NoiseRate <= 1) {
		return c, fmt.Errorf("gen: noise rate %v outside [0,1]", c.NoiseRate)
	}
	if c.ConstShare == 0 {
		c.ConstShare = 0.5
	}
	if !(0 <= c.ConstShare && c.ConstShare <= 1) {
		return c, fmt.Errorf("gen: constant share %v outside [0,1]", c.ConstShare)
	}
	if c.PatternRows <= 0 {
		// Scale the tableau with the data, as the paper's scraped data
		// does (its distinct zips and area codes grow with the crawl,
		// and its tableaus carry 300–5,000 pattern tuples): one pattern
		// row per ten tuples keeps per-zip tuple groups realistically
		// small. Clamp to the paper's range.
		c.PatternRows = c.Size / 10
		if c.PatternRows < 300 {
			c.PatternRows = 300
		}
		if c.PatternRows > 5000 {
			c.PatternRows = 5000
		}
	}
	if c.Customers <= 0 {
		// Most customers place a single order (their tuples have no
		// embedded-FD partners; only constant CFD patterns can catch
		// noise there), while the skewed pick below gives a head of
		// repeat customers whose orders exercise the variable rules.
		c.Customers = c.Size/2 + 1
	}
	if c.Items <= 0 {
		c.Items = c.Size/5 + 1
	}
	if c.MaxNoisyAttrs <= 0 {
		c.MaxNoisyAttrs = 2
	}
	if c.WeightA == 0 {
		c.WeightA = 0.6
	}
	if c.WeightB == 0 {
		c.WeightB = 0.5
	}
	if !(0 <= c.WeightA && c.WeightA <= 1 && 0 <= c.WeightB && c.WeightB <= 1) {
		return c, fmt.Errorf("gen: weight bounds a=%v b=%v outside [0,1]", c.WeightA, c.WeightB)
	}
	return c, nil
}

// Dataset is one generated workload.
type Dataset struct {
	// Schema is the extended order schema.
	Schema *relation.Schema
	// Opt is the clean database Dopt (consistent with Sigma).
	Opt *relation.Relation
	// Dirty is D: Opt with noise injected. Tuple ids align with Opt.
	Dirty *relation.Relation
	// CFDs is Σ in general form; Sigma is its normal form.
	CFDs  []*cfd.CFD
	Sigma []*cfd.Normal
	// DirtyIDs lists tuples that were perturbed; NoisyCells counts
	// perturbed attribute values, dif(D, Dopt).
	DirtyIDs   []relation.TupleID
	NoisyCells int
	// PatternRows is the realized total tableau size of Σ.
	PatternRows int

	cfg Config
	g   *geo
}

// New generates a dataset.
func New(cfg Config) (*Dataset, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	schema := relation.MustSchema("order", OrderAttrs...)

	g := buildGeo(rng, deriveDims(c.PatternRows))
	customers := buildCustomers(rng, g, c.Customers)
	items := buildItems(rng, c.Items)

	opt := relation.New(schema)
	skewed := func(n int) int {
		u := rng.Float64()
		i := int(u * math.Sqrt(u) * float64(n))
		if i >= n {
			i = n - 1
		}
		return i
	}
	for i := 0; i < c.Size; i++ {
		cu := customers[skewed(len(customers))]
		it := items[skewed(len(items))]
		ci := g.cities[g.acCity[cu.ac]]
		vat := g.countries[ci.country].vat
		qtt := fmt.Sprintf("%d", 1+rng.Intn(9))
		t := relation.NewTuple(relation.TupleID(i+1),
			it.id, it.name, it.pr,
			cu.ac, cu.pn, cu.str, cu.ct, cu.st, cu.zip,
			cu.cty, vat, it.tt, qtt)
		opt.MustInsert(t)
	}

	ds := &Dataset{
		Schema: schema,
		Opt:    opt,
		cfg:    c,
		g:      g,
	}
	ds.CFDs = buildSigma(schema, g)
	ds.Sigma = cfd.NormalizeAll(ds.CFDs)
	for _, φ := range ds.CFDs {
		ds.PatternRows += len(φ.Tableau)
	}

	if !cfd.Satisfies(opt, ds.Sigma) {
		return nil, fmt.Errorf("gen: internal error: clean data violates Σ")
	}

	ds.Dirty = opt.Clone()
	ds.injectNoise(rng)
	ds.assignWeights(rng)
	return ds, nil
}

// EmbeddedFDs returns Σ reduced to its embedded FDs (single all-wildcard
// pattern rows), the baseline of the Fig. 8 comparison.
func (d *Dataset) EmbeddedFDs() []*cfd.Normal {
	fds := make([]*cfd.CFD, len(d.CFDs))
	for i, φ := range d.CFDs {
		fds[i] = φ.EmbeddedFD()
	}
	return cfd.NormalizeAll(fds)
}

// buildSigma assembles the seven CFDs of §7.1: ϕ1–ϕ4 from the paper's
// Figs. 1–2 (with tableaus filled from the synthetic geography), ϕ5 on
// country/VAT, and the cyclic ϕ6/ϕ7 closing a loop through CT/ST and zip.
func buildSigma(s *relation.Schema, g *geo) []*cfd.CFD {
	w := cfd.W

	// ϕ1: [AC,PN] → [STR,CT,ST]; wildcard row is fd1, plus one constant
	// row per area code binding its city and state (paper Fig. 1(b)).
	rows1 := [][]cfd.Cell{{w, w, w, w, w}}
	for ci := range g.cities {
		c := g.cities[ci]
		for _, ac := range c.acs {
			rows1 = append(rows1, []cfd.Cell{
				cfd.C(ac), w, w, cfd.C(c.name), cfd.C(c.state),
			})
		}
	}
	φ1 := cfd.MustNew("phi1", s, []string{"AC", "PN"}, []string{"STR", "CT", "ST"}, rows1...)

	// ϕ2: [zip] → [CT,ST]; wildcard row is fd2, plus one row per zip.
	rows2 := [][]cfd.Cell{{w, w, w}}
	for ci := range g.cities {
		c := g.cities[ci]
		for _, z := range c.zips {
			rows2 = append(rows2, []cfd.Cell{
				cfd.C(z), cfd.C(c.name), cfd.C(c.state),
			})
		}
	}
	φ2 := cfd.MustNew("phi2", s, []string{"zip"}, []string{"CT", "ST"}, rows2...)

	// ϕ3, ϕ4: the standard FDs of Fig. 2.
	φ3 := cfd.MustNew("phi3", s, []string{"id"}, []string{"name", "PR"},
		[]cfd.Cell{w, w, w})
	φ4 := cfd.MustNew("phi4", s, []string{"CT", "STR"}, []string{"zip"},
		[]cfd.Cell{w, w, w})

	// ϕ5: [CTY] → [VAT], one constant row per country: a pure constant
	// CFD (every row binds the RHS to a constant).
	var rows5 [][]cfd.Cell
	for _, co := range g.countries {
		rows5 = append(rows5, []cfd.Cell{cfd.C(co.name), cfd.C(co.vat)})
	}
	φ5 := cfd.MustNew("phi5", s, []string{"CTY"}, []string{"VAT"}, rows5...)

	// ϕ6: [AC] → [CT,ST], one constant row per area code. Together with
	// ϕ4 (CT,STR → zip) and ϕ2 (zip → CT,ST) the dependency graph is
	// cyclic on {CT, zip}: repairing one can re-violate the other, the
	// situation of the paper's Example 4.1.
	var rows6 [][]cfd.Cell
	for ci := range g.cities {
		c := g.cities[ci]
		for _, ac := range c.acs {
			rows6 = append(rows6, []cfd.Cell{
				cfd.C(ac), cfd.C(c.name), cfd.C(c.state),
			})
		}
	}
	φ6 := cfd.MustNew("phi6", s, []string{"AC"}, []string{"CT", "ST"}, rows6...)

	// ϕ7: [CT,ST] → [CTY], wildcard row plus one row per city; reads the
	// attributes ϕ2/ϕ6 write and writes the attribute ϕ5 reads,
	// lengthening the repair chains.
	rows7 := [][]cfd.Cell{{w, w, w}}
	for ci := range g.cities {
		c := g.cities[ci]
		rows7 = append(rows7, []cfd.Cell{
			cfd.C(c.name), cfd.C(c.state), cfd.C(g.countries[c.country].name),
		})
	}
	φ7 := cfd.MustNew("phi7", s, []string{"CT", "ST"}, []string{"CTY"}, rows7...)

	return []*cfd.CFD{φ1, φ2, φ3, φ4, φ5, φ6, φ7}
}
