// Package workload synthesizes the paper's experimental workload (§7.1):
// an extended order relation with correlated values, a set Σ of seven
// CFDs with large pattern tableaus, controlled noise at rate ρ, and the
// weight protocol of the cost model. It stands in for the paper's data
// scraped from AMAZON and other websites (README's `cfdgen` section says
// how) and drives both the examples and the benchmark harness.
//
// # Reproducibility
//
// Workload runs are reproducible end to end under the interned value
// substrate. Identical Configs yield byte-identical datasets: all
// randomness flows from Seed, and interned value ids are assigned in
// insertion order, so dictionaries, active domains and hash indices come
// out identical run to run. Repairs over a generated dataset are equally
// deterministic — same seed, same repair cost, same repaired database (see
// repro_test.go). Detection and both repair engines run on the caller's
// goroutine; the Workers options they still accept drive nothing, so no
// worker count can move a result.
package workload

import (
	"cfdclean/internal/gen"
)

// Config controls one generated dataset; see the field documentation on
// the underlying type. The zero value of everything but Size is usable.
type Config = gen.Config

// Dataset bundles the clean database Dopt, the dirty database D, the
// constraint set Σ (general and normal form), and bookkeeping about the
// injected noise.
type Dataset = gen.Dataset

// Attribute positions of the generated order schema.
const (
	AttrID   = gen.AID
	AttrName = gen.AName
	AttrPR   = gen.APR
	AttrAC   = gen.AAC
	AttrPN   = gen.APN
	AttrSTR  = gen.ASTR
	AttrCT   = gen.ACT
	AttrST   = gen.AST
	AttrZip  = gen.AZip
	AttrCTY  = gen.ACTY
	AttrVAT  = gen.AVAT
	AttrTT   = gen.ATT
	AttrQTT  = gen.AQTT
)

// OrderAttrs is the attribute list of the generated order schema.
var OrderAttrs = gen.OrderAttrs

// Generate builds a dataset; identical Configs yield identical data.
// For the streaming scenario, Dataset.StreamBatches arranges the
// perturbed tuples as ΔD insertion batches (with ground truth) over the
// clean Opt base — the input format of the Session/ApplyDelta API.
func Generate(cfg Config) (*Dataset, error) { return gen.New(cfg) }
