package repair

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// This file is the component-parallel schedule of BATCHREPAIR. The
// violation graph (tuples as nodes, an edge per shared violation — see
// cfd.VioStore.Components) decomposes the dirty database into connected
// components that share no violation, so the greedy repair loop can run
// on each component independently. The schedule is deterministic by
// construction, not by locking:
//
//   - every component is repaired against a *pristine* view of the
//     database: a worker journals its writes and rolls them back before
//     taking the next component, so what a component's repair observes
//     never depends on which worker ran it or what ran before it;
//   - each engine owns its clone of the relation, violation store,
//     equivalence classes, cost memo and support indices, so nothing is
//     shared but immutable inputs and the compiled Σ;
//   - components are handed out largest first, the largest to the engine
//     Batch already holds, and a further engine is built only when the
//     components beside the largest are worth its set-up (enginesFor):
//     generated dirty data puts most violating tuples in one component,
//     where a second engine would be built to repair crumbs;
//   - the per-component fix lists are merged into the result in
//     canonical component order (components by smallest member, cells by
//     (tuple, attribute)), making the merged state independent of
//     completion order;
//   - the greedy loop itself visits dirty tuples in sorted id order and
//     ranks FINDV candidates in sorted value order, so a component's fix
//     list is a pure function of the pristine database and Σ.
//
// Repairing a component can, rarely, cascade outside it: committing a
// constant to an equivalence class can surface a new violation against a
// previously clean tuple that another component also reaches. The merge
// resolves write conflicts deterministically (later component wins) and
// Batch runs a residual sequential pass over whatever violations remain
// after the merge, so the engine's contract — the result satisfies Σ —
// is unconditional.

// cellFix is one net cell change a component repair resolved: the value
// the cell holds after the component's repair, against pristine state.
type cellFix struct {
	id relation.TupleID
	a  int
	v  relation.Value
}

// compStats aggregates per-component counters into the run's Result.
type compStats struct {
	resolutions int
	rounds      int
}

// seedFor returns the embedded-FD groups tuple id currently violates,
// building the tuple→groups map from the store on first use.
func (e *engine) seedFor(id relation.TupleID) []int {
	if e.seedGroups == nil {
		e.seedGroups = make(map[relation.TupleID][]int)
		e.store.EachViolation(func(gi int, v cfd.Violation) {
			e.seedGroups[v.T] = appendUnique(e.seedGroups[v.T], gi)
		})
	}
	return e.seedGroups[id]
}

// repairComponent runs the full BATCHREPAIR loop (Fig. 4: resolve until
// the dirty sets drain, instantiate, repeat) seeded with one violation-
// graph component, collects the component's net cell fixes, and rolls
// the working copy back to its pristine state. budget bounds the
// resolutions of this component alone (Theorem 4.2's termination
// measure, applied per component).
func (e *engine) repairComponent(comp []relation.TupleID, budget int) ([]cellFix, compStats, error) {
	e.recording = true
	for _, id := range comp {
		for _, gi := range e.seedFor(id) {
			e.dirty[gi][id] = true
		}
	}
	var st compStats
	start := e.resolutions
	limit := e.resolutions + budget
	for {
		if err := e.mainLoop(limit); err != nil {
			e.unwind()
			return nil, st, err
		}
		st.rounds++
		if !e.instantiate() {
			break
		}
	}
	st.resolutions = e.resolutions - start
	return e.unwind(), st, nil
}

// unwind ends a component repair: it reduces the write journal to the net
// per-cell changes against pristine state, in canonical (tuple id,
// attribute) order, restores every journaled cell to its pristine value
// and resets the per-component scratch state (write journal, dirty sets,
// equivalence classes), returning the engine to the state it was in
// before the component repair began. Cells whose final value equals their
// pristine value yield no fix. The violation store maintains itself back
// through the relation's journal.
func (e *engine) unwind() []cellFix {
	e.recording = false
	// Stable, so the first journaled write of each cell — the one whose
	// old value is pristine — leads its run.
	slices.SortStableFunc(e.writes, func(x, y cellWrite) int {
		return cmp.Or(cmp.Compare(x.id, y.id), cmp.Compare(x.a, y.a))
	})
	var fixes []cellFix
	for i, w := range e.writes {
		if i > 0 && e.writes[i-1].id == w.id && e.writes[i-1].a == w.a {
			continue
		}
		t := e.rel.Tuple(w.id)
		if t == nil {
			continue // unreachable: Batch never deletes tuples
		}
		if cur := t.Vals[w.a]; !relation.StrictEq(cur, w.old) {
			fixes = append(fixes, cellFix{id: w.id, a: w.a, v: cur})
			e.setStored(t, w.a, w.old)
		}
	}
	e.writes = e.writes[:0]
	for i := range e.dirty {
		clear(e.dirty[i])
	}
	e.classes.Reset()
	return fixes
}

// What the schedule weighs, in microseconds on the box that measured them
// (EXPERIMENTS.md "PR 14"; only their ratio matters). Setting an engine up
// — a clone, a store scan, a dozen group and support indexes — is linear
// in |D|. The greedy loop is quadratic in a component, every resolution
// re-planning the violations still open: the small components that sit
// beside the largest cost about a microsecond per pair of tuples.
const (
	setupMicrosPerTuple = 6
	repairMicrosPerPair = 1
)

// enginesFor decides how many engines — the caller's included, at most
// workers — a schedule over components of the given sizes (largest first)
// in a database of n tuples is worth. The caller's engine takes the
// largest component at once. A further engine repairs nothing until it is
// set up, and its set-up is wasted CPU unless the wall-clock time it saves
// is at least as long, which takes twice its set-up in work beside the
// largest component; so one is granted per such portion. A pure function
// of the input: a run's Engines is as reproducible as its repair.
func enginesFor(sizes []int, n, workers int) int {
	rest := 0
	for _, s := range sizes[1:] {
		rest += repairMicrosPerPair * s * s
	}
	setup := setupMicrosPerTuple * max(n, 1)
	return max(1, min(workers, len(sizes), 1+rest/(2*setup)))
}

// schedule is how a run's components were scheduled, for Result.
type schedule struct {
	largest int // tuples in the biggest component
	engines int // engines built, the caller's included
}

// runComponents repairs every component and returns the per-component
// fix lists, index-aligned with comps. Components are pulled largest
// first off a shared counter by the engines enginesFor grants: e itself,
// which starts on the largest at once, and forks of it over clones of the
// (pristine) working copy, each set up on its own goroutine. Results land
// in the index-aligned slice, so scheduling never shows in the output.
func (e *engine) runComponents(comps [][]relation.TupleID, budget int) ([][]cellFix, compStats, schedule, error) {
	fixes := make([][]cellFix, len(comps))
	stats := make([]compStats, len(comps))
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return len(comps[j]) - len(comps[i]) })
	sizes := make([]int, len(comps))
	for i, ci := range order {
		sizes[i] = len(comps[ci])
	}
	sched := schedule{largest: sizes[0], engines: enginesFor(sizes, e.rel.Size(), e.opts.Workers)}

	var next atomic.Int64
	next.Store(1)
	// run repairs order[i] and then whatever the counter hands out.
	run := func(we *engine, i int) error {
		for ; i < len(order); i = int(next.Add(1)) - 1 {
			ci := order[i]
			fl, st, err := we.repairComponent(comps[ci], budget)
			if err != nil {
				return err
			}
			fixes[ci], stats[ci] = fl, st
		}
		return nil
	}
	errs := make([]error, sched.engines)
	var wg sync.WaitGroup
	for w := 1; w < sched.engines; w++ {
		// Cloned here, while e.rel is still pristine; the store scan and
		// the rest of the set-up run beside worker 0's repair. The scan
		// stays sequential — the parallelism budget is already spent on
		// components.
		wrel := e.rel.Clone()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wopts := e.opts
			wopts.Workers = 1
			we := newEngine(wrel, e.orig, e.prog, e.sigmaPlan, wopts)
			defer we.store.Close()
			we.sizeClasses(sizes[1])
			errs[w] = run(we, int(next.Add(1))-1)
		}(w)
	}
	e.sizeClasses(sizes[0])
	errs[0] = run(e, 0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, compStats{}, sched, err
		}
	}
	var total compStats
	for _, st := range stats {
		total.resolutions += st.resolutions
		total.rounds += st.rounds
	}
	return fixes, total, sched, nil
}
