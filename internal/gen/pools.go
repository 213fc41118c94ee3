package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// The pools below synthesize the correlated value universe of the paper's
// extended order schema (§7.1): countries with VAT rates, states, cities
// with their zip codes and area codes, streets with per-(city,street) zip
// assignments, customers (phone + address) and items (id, name, price).
// All correlations are functional so that the clean database Dopt
// satisfies Σ by construction.

// country groups states; every sale into the country carries its VAT.
type country struct {
	name string
	vat  string
}

// city is the unit of geographic correlation: one state, one country, a
// set of zip codes and a set of area codes that belong to it alone.
type city struct {
	name    string
	state   string
	country int // index into geo.countries
	zips    []string
	acs     []string
	streets []street
}

// street fixes the zip of every (city, street) pair, making the embedded
// FD of ϕ4 hold on clean data.
type street struct {
	name string
	zip  string
}

// geo is the complete synthetic geography.
type geo struct {
	countries []country
	cities    []city
	// zipCity[z] and acCity[a] locate the owning city, for tableau
	// construction and noise targeting.
	zipCity map[string]int
	acCity  map[string]int
}

// customer owns a phone number and an address drawn from the geography.
// [AC,PN] → address is functional because customers are fixed.
type customer struct {
	ac, pn           string
	str, ct, st, zip string
	cty              string
}

// item fixes name and price per id (ϕ3) and a display title.
type item struct {
	id, name, pr, tt string
}

var (
	citySyllables = []string{
		"Ash", "Bel", "Cla", "Dor", "Eve", "Fair", "Glen", "Hart",
		"Iron", "Jas", "Kirk", "Lan", "Mill", "Nor", "Oak", "Pine",
		"Quin", "Ros", "Spring", "Thorn", "Ulm", "Ver", "Wood", "York",
	}
	citySuffixes = []string{
		"ville", "ton", "field", "burg", "ford", "haven", "port",
		"dale", "wood", "mont", "side", "view",
	}
	streetNames = []string{
		"Walnut", "Spruce", "Canel", "Broad", "Maple", "Cedar", "Elm",
		"Chestnut", "Locust", "Market", "Vine", "Arch", "Race", "Pine",
		"Juniper", "Filbert", "Sansom", "Lombard", "Catharine", "Bain",
		"Fulton", "Monroe", "Carpenter", "Christian", "Reed", "Dickinson",
		"Tasker", "Morris", "Moore", "Mifflin", "Snyder", "Jackson",
	}
	itemNouns = []string{
		"Lamp", "Kettle", "Novel", "Atlas", "Radio", "Teapot", "Globe",
		"Puzzle", "Blanket", "Clock", "Mirror", "Basket", "Ladder",
		"Journal", "Compass", "Camera", "Helmet", "Wallet", "Scarf",
		"Candle", "Easel", "Hammock", "Lantern", "Satchel", "Telescope",
	}
	itemAdjectives = []string{
		"Brass", "Oak", "Velvet", "Copper", "Linen", "Marble", "Cedar",
		"Ivory", "Slate", "Amber", "Pearl", "Crimson", "Walnut", "Jade",
	}
	countryPool = []country{
		{"US", "0.00"}, {"UK", "20.00"}, {"DE", "19.00"}, {"FR", "19.60"},
		{"NL", "21.00"}, {"IT", "22.00"},
	}
	statePool = []string{
		"PA", "NY", "NJ", "DE", "MD", "VA", "OH", "MA", "CT", "RI",
		"NH", "VT", "ME", "MI", "IL", "IN", "WI", "MN", "IA", "MO",
	}
)

// dims derives pool sizes from the requested tableau volume. PatternRows
// is an approximate total across Σ; the exact count is reported by the
// Dataset. The split keeps ϕ2 (per-zip rows) the largest tableau, as in
// the paper's setup where zip patterns dominate.
type dims struct {
	nCountries int
	nCities    int
	nZips      int
	nACs       int
	nStreets   int // streets carried per city
}

// maxZips and maxACs are how many distinct values buildGeo's formats can
// produce: zips are 10000–99998, area codes [2-9]dd. Asking it for more
// would have it redraw forever.
const (
	maxZips = 89999
	maxACs  = 800
)

func deriveDims(patternRows int) dims {
	var d dims
	d.nZips = min(max(patternRows/2, 8), maxZips)
	d.nACs = min(max(patternRows/5, 4), maxACs)
	d.nCities = patternRows / 10
	if d.nCities < 4 {
		d.nCities = 4
	}
	if d.nCities > d.nZips {
		d.nCities = d.nZips
	}
	if d.nCities > d.nACs {
		d.nCities = d.nACs
	}
	d.nCountries = len(countryPool)
	if d.nCountries > 2+d.nCities/4 {
		d.nCountries = 2 + d.nCities/4
	}
	d.nStreets = 12
	return d
}

// buildGeo synthesizes the geography deterministically from rng.
func buildGeo(rng *rand.Rand, d dims) *geo {
	g := &geo{
		zipCity: make(map[string]int),
		acCity:  make(map[string]int),
	}
	g.countries = append(g.countries, countryPool[:d.nCountries]...)

	seenCity := make(map[string]bool)
	for len(g.cities) < d.nCities {
		name := citySyllables[rng.Intn(len(citySyllables))] +
			citySuffixes[rng.Intn(len(citySuffixes))]
		if seenCity[name] {
			// Disambiguate rather than loop forever on a small pool.
			name = fmt.Sprintf("%s %d", name, len(g.cities))
		}
		seenCity[name] = true
		g.cities = append(g.cities, city{
			name:    name,
			state:   statePool[rng.Intn(len(statePool))],
			country: rng.Intn(len(g.countries)),
		})
	}

	// Zips: 5-digit strings, unique, assigned round-robin with jitter so
	// every city owns at least one zip.
	zipSeen := make(map[string]bool)
	for i := 0; i < d.nZips; i++ {
		var z string
		for {
			z = fmt.Sprintf("%05d", 10000+rng.Intn(89999))
			if !zipSeen[z] {
				break
			}
		}
		zipSeen[z] = true
		ci := i % len(g.cities)
		g.cities[ci].zips = append(g.cities[ci].zips, z)
		g.zipCity[z] = ci
	}

	// Area codes: 3-digit strings starting with 2-9, unique per city.
	acSeen := make(map[string]bool)
	for i := 0; i < d.nACs; i++ {
		var a string
		for {
			a = fmt.Sprintf("%d%02d", 2+rng.Intn(8), rng.Intn(100))
			if !acSeen[a] {
				break
			}
		}
		acSeen[a] = true
		ci := i % len(g.cities)
		g.cities[ci].acs = append(g.cities[ci].acs, a)
		g.acCity[a] = ci
	}

	// Streets: each city carries d.nStreets named streets, each pinned to
	// one of the city's zips.
	for ci := range g.cities {
		c := &g.cities[ci]
		perm := rng.Perm(len(streetNames))
		n := d.nStreets
		if n > len(streetNames) {
			n = len(streetNames)
		}
		for _, si := range perm[:n] {
			c.streets = append(c.streets, street{
				name: streetNames[si] + " St",
				zip:  c.zips[rng.Intn(len(c.zips))],
			})
		}
	}
	return g
}

// buildCustomers draws n customers; (AC,PN) is unique, the address is
// internally consistent with the geography. City popularity is skewed
// (a power law, as in real location data): a few cities hold most
// customers while many zip and area-code groups stay near-singleton.
// The skew matters for the CFD-vs-FD comparison (Fig. 8): in a sparse
// group a dirty tuple has no partner to violate an embedded FD with, so
// only the constant pattern rows of the CFDs can catch it.
func buildCustomers(rng *rand.Rand, g *geo, n int) []customer {
	out := make([]customer, 0, n)
	seen := make(map[string]bool)
	for len(out) < n {
		u := rng.Float64()
		ci := int(u * u * float64(len(g.cities)))
		if ci >= len(g.cities) {
			ci = len(g.cities) - 1
		}
		c := g.cities[ci]
		ac := c.acs[rng.Intn(len(c.acs))]
		pn := fmt.Sprintf("%07d", 1000000+rng.Intn(8999999))
		if seen[ac+"|"+pn] {
			continue
		}
		seen[ac+"|"+pn] = true
		st := c.streets[rng.Intn(len(c.streets))]
		out = append(out, customer{
			ac: ac, pn: pn,
			str: st.name, ct: c.name, st: c.state, zip: st.zip,
			cty: g.countries[c.country].name,
		})
	}
	return out
}

// buildItems draws n items with unique ids and names; name and price are
// fixed per id so that ϕ3 holds on clean data. Ids are sparse in their
// value space and names unique, mirroring real catalog data (ASINs,
// product titles): a typo'd sparse id almost never collides with another
// real id, whereas dense sequential ids one edit apart would make every
// id typo ambiguous — an artifact of generation, not of the paper's
// scraped data.
func buildItems(rng *rand.Rand, n int) []item {
	out := make([]item, 0, n)
	seenID := make(map[string]bool, n)
	seenName := make(map[string]bool, n)
	for len(out) < n {
		id := fmt.Sprintf("%c%c%06d",
			'a'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(1000000))
		if seenID[id] {
			continue
		}
		seenID[id] = true
		adj := itemAdjectives[rng.Intn(len(itemAdjectives))]
		noun := itemNouns[rng.Intn(len(itemNouns))]
		name := adj + " " + noun
		if seenName[name] {
			name = fmt.Sprintf("%s %d", name, 100+rng.Intn(900))
			if seenName[name] {
				name = fmt.Sprintf("%s No. %d", name, len(out))
			}
		}
		seenName[name] = true
		out = append(out, item{
			id:   id,
			name: name,
			pr:   fmt.Sprintf("%d.%02d", 1+rng.Intn(199), rng.Intn(100)),
			tt:   strings.ToUpper(noun[:1]) + noun[1:] + " Classic",
		})
	}
	return out
}
