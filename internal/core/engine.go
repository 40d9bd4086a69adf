package core

import (
	"context"
	"fmt"
	"sort"

	"gea/internal/columnar"
	"gea/internal/exec"
	"gea/internal/exec/shard"
	"gea/internal/interval"
	"gea/internal/sage"
)

// Engine selects the physical evaluation path of an operator. Both
// engines sit behind the same equivalence wall: for any input they
// produce reflect.DeepEqual-identical results and charge identical
// unit sequences, so traces, budgets and partial prefixes agree; the
// columnar engine saves computation (decoded bytes, skipped blocks),
// never work units.
type Engine int

// The engines.
const (
	// EngineAuto picks columnar when the dataset already has a
	// memoised columnar view (see columnar.Of) and falls back to the
	// row engine otherwise — datasets never pay a conversion they did
	// not opt into. Operators without a dataset (SUMY-level scans)
	// resolve Auto to the row engine.
	EngineAuto Engine = iota
	// EngineRow is the classic row-at-a-time evaluation over
	// sage.Dataset.Expr.
	EngineRow
	// EngineColumnar evaluates block-at-a-time over the compressed
	// column store, building it on first use.
	EngineColumnar
)

// String names the engine as the -engine flag spells it.
func (e Engine) String() string {
	switch e {
	case EngineRow:
		return "row"
	case EngineColumnar:
		return "columnar"
	default:
		return "auto"
	}
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "row":
		return EngineRow, nil
	case "columnar":
		return EngineColumnar, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want auto, row or columnar)", s)
}

// columnarStore resolves the engine choice for a dataset-backed
// operator: the store to scan, or nil for the row engine.
func columnarStore(e Engine, d *sage.Dataset) *columnar.Store {
	switch e {
	case EngineColumnar:
		return columnar.Of(d)
	case EngineAuto:
		return columnar.Peek(d)
	default:
		return nil
	}
}

// sumyColumnar resolves the engine choice for SUMY-level operators,
// whose columnar path needs no store (the sorted row run is the
// column): Auto stays on the row engine.
func sumyColumnar(e Engine) bool { return e == EngineColumnar }

// DiffEngine is DiffWith with an explicit engine. The columnar path
// replaces the per-tag hash probe with a sort-merge join over the two
// tables' tag-sorted runs; match values still come from the index
// probe, so tables with duplicate tags (last wins) diff identically.
func DiffEngine(c *exec.Ctl, name string, a, b *Sumy, eng Engine) (*Gap, bool, error) {
	if sumyColumnar(eng) {
		return diffMerge(c, name, a, b)
	}
	return DiffWith(c, name, a, b)
}

// DiffEngineCtx is DiffEngine under execution governance.
func DiffEngineCtx(ctx context.Context, name string, a, b *Sumy, eng Engine, lim exec.Limits) (*Gap, exec.Trace, error) {
	c := exec.New(ctx, lim)
	var g *Gap
	var partial bool
	err := exec.Guard("core.Diff", name, func() error {
		var err error
		g, partial, err = DiffEngine(c, name, a, b, eng)
		return err
	})
	if err != nil {
		g = nil
	}
	return g, c.Snapshot(partial), err
}

// diffMerge is the columnar diff kernel: each shard binary-searches
// its start in b once and then advances both sorted runs in lockstep.
func diffMerge(c *exec.Ctl, name string, a, b *Sumy) (_ *Gap, partial bool, err error) {
	sp := c.StartSpan("core.Diff")
	sp.SetInput("%s (%d rows) vs %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	out := make([]GapRow, len(a.Rows))
	has := make([]bool, len(a.Rows))
	prefix, partial, err := shard.For(c, len(a.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		j := sort.Search(len(b.Rows), func(j int) bool { return b.Rows[j].Tag >= a.Rows[lo].Tag })
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			ra := a.Rows[i]
			for j < len(b.Rows) && b.Rows[j].Tag < ra.Tag {
				j++
			}
			if j < len(b.Rows) && b.Rows[j].Tag == ra.Tag {
				// The merge decides existence; the value comes from the
				// same probe the row engine makes, so duplicate-tag
				// tables (Row is last-wins) produce identical gaps.
				rb, _ := b.Row(ra.Tag)
				out[i] = GapRow{Tag: ra.Tag, Values: []GapValue{gapOf(ra, rb)}}
				has[i] = true
			}
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []GapRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every row was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if has[i] {
			rows = append(rows, out[i])
		}
	}
	g, err := NewGap(name, []string{"gap"}, rows)
	if err != nil {
		return nil, false, err
	}
	return g, partial, nil
}

// MinusSumyEngine is MinusSumyWith with an explicit engine; the
// columnar path decides membership by sort-merge instead of hash
// probes.
func MinusSumyEngine(c *exec.Ctl, name string, a, b *Sumy, eng Engine) (_ *Sumy, partial bool, err error) {
	if !sumyColumnar(eng) {
		return MinusSumyWith(c, name, a, b)
	}
	sp := c.StartSpan("core.MinusSumy")
	sp.SetInput("%s (%d rows) minus %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	return sumyMergeScan(c, name, a, b, false)
}

// IntersectSumyEngine is IntersectSumyWith with an explicit engine.
func IntersectSumyEngine(c *exec.Ctl, name string, a, b *Sumy, eng Engine) (_ *Sumy, partial bool, err error) {
	if !sumyColumnar(eng) {
		return IntersectSumyWith(c, name, a, b)
	}
	sp := c.StartSpan("core.IntersectSumy")
	sp.SetInput("%s (%d rows) intersect %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	return sumyMergeScan(c, name, a, b, true)
}

// sumyMergeScan keeps the rows of a whose tag does (want=true) or does
// not (want=false) appear in b, membership decided by merging the two
// sorted runs. Charging and compaction mirror sumySetScan exactly.
func sumyMergeScan(c *exec.Ctl, name string, a, b *Sumy, want bool) (*Sumy, bool, error) {
	keep := make([]bool, len(a.Rows))
	prefix, partial, err := shard.For(c, len(a.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		j := sort.Search(len(b.Rows), func(j int) bool { return b.Rows[j].Tag >= a.Rows[lo].Tag })
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			t := a.Rows[i].Tag
			for j < len(b.Rows) && b.Rows[j].Tag < t {
				j++
			}
			keep[i] = (j < len(b.Rows) && b.Rows[j].Tag == t) == want
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []SumyRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every tag was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if keep[i] {
			rows = append(rows, a.Rows[i])
		}
	}
	return NewSumy(name, rows, a.ExtraCols), partial, nil
}

// UnionSumyEngine is UnionSumyWith with an explicit engine; the
// columnar path probes b's tags against a's sorted run by merge.
func UnionSumyEngine(c *exec.Ctl, name string, a, b *Sumy, eng Engine) (_ *Sumy, partial bool, err error) {
	if !sumyColumnar(eng) {
		return UnionSumyWith(c, name, a, b)
	}
	sp := c.StartSpan("core.UnionSumy")
	sp.SetInput("%s (%d rows) union %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	na := len(a.Rows)
	out := make([]SumyRow, na+len(b.Rows))
	keep := make([]bool, na+len(b.Rows))
	prefix, partial, err := shard.For(c, na+len(b.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		j := -1 // lazily positioned in a's run at the first b item
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			if i < na {
				out[i] = a.Rows[i]
				keep[i] = true
				continue
			}
			r := b.Rows[i-na]
			if j < 0 {
				j = sort.Search(len(a.Rows), func(j int) bool { return a.Rows[j].Tag >= r.Tag })
			}
			for j < len(a.Rows) && a.Rows[j].Tag < r.Tag {
				j++
			}
			if !(j < len(a.Rows) && a.Rows[j].Tag == r.Tag) {
				out[i] = r
				keep[i] = true
			}
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []SumyRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every tag was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if keep[i] {
			rows = append(rows, out[i])
		}
	}
	return NewSumy(name, rows, a.ExtraCols), partial, nil
}

// RangeSpec is an Allen-relation (or broad-overlap) selection over a
// SUMY table's ranges — the declarative form SelectSumyRange can
// zone-prune, unlike an opaque SumyPredicate.
type RangeSpec struct {
	// Broad selects the GUI's inclusive overlap (interval.AnyOverlap)
	// instead of the strict relation Rel.
	Broad bool
	// Rel is the Allen relation tested when Broad is false.
	Rel interval.Relation
	// Query is the query range.
	Query interval.Interval
}

// Predicate returns the equivalent SumyPredicate — what the row engine
// evaluates per row.
func (spec RangeSpec) Predicate() SumyPredicate {
	if spec.Broad {
		return RangeAnyOverlap(spec.Query)
	}
	return RangeRelation(spec.Rel, spec.Query)
}

// SelectSumyRange is relational selection on a SUMY table by range
// arithmetic, with an explicit engine. The row engine tests every row;
// the columnar engine builds interval zone maps over the sorted run
// and skips whole row groups the relation provably cannot hold in
// (columnar.IntervalZone.CanPrune), still charging one unit per row so
// both engines trace identically.
func SelectSumyRange(c *exec.Ctl, name string, s *Sumy, spec RangeSpec, eng Engine) (*Sumy, bool, error) {
	if !sumyColumnar(eng) {
		return SelectSumyWith(c, name, s, spec.Predicate())
	}
	return selectSumyZones(c, name, s, spec)
}

// SelectSumyRangeCtx is SelectSumyRange under execution governance.
func SelectSumyRangeCtx(ctx context.Context, name string, s *Sumy, spec RangeSpec, eng Engine, lim exec.Limits) (*Sumy, exec.Trace, error) {
	c := exec.New(ctx, lim)
	var out *Sumy
	var partial bool
	err := exec.Guard("core.SelectSumy", name, func() error {
		var err error
		out, partial, err = SelectSumyRange(c, name, s, spec, eng)
		return err
	})
	if err != nil {
		out = nil
	}
	return out, c.Snapshot(partial), err
}

// selectSumyZones is the zone-pruned selection kernel.
func selectSumyZones(c *exec.Ctl, name string, s *Sumy, spec RangeSpec) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.SelectSumy")
	sp.SetInput("sumy %s: %d rows", s.Name, len(s.Rows))
	defer c.EndSpan(sp, &partial, &err)
	ivs := make([]interval.Interval, len(s.Rows))
	//lint:gea ctlcharge -- O(rows) zone-map construction feeding the metered scan below; the scan charges every row
	for i, r := range s.Rows {
		ivs[i] = r.Range
	}
	zones := columnar.IntervalZones(ivs, 0)
	edges := make([]int, len(zones)+1)
	//lint:gea ctlcharge -- O(zones) dispatch bookkeeping; the scan kernel meters the rows
	for zi := range zones {
		edges[zi] = zones[zi].Lo
	}
	edges[len(zones)] = len(s.Rows)
	pred := spec.Predicate()
	keep := make([]bool, len(s.Rows))
	prefix, partial, err := shard.ForBlocks(c, 0, edges, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for i := lo; i < hi; {
			z := &zones[i/columnar.DefaultZoneRows]
			end := z.Hi
			if end > hi {
				end = hi
			}
			if z.CanPrune(spec.Rel, spec.Broad, spec.Query) {
				for k := i; k < end; k++ {
					if err := c.Point(1); err != nil {
						return k - lo, err
					}
					keep[k] = false
				}
			} else {
				for k := i; k < end; k++ {
					if err := c.Point(1); err != nil {
						return k - lo, err
					}
					keep[k] = pred(s.Rows[k])
				}
			}
			i = end
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var scanned, skipped int64
	//lint:gea ctlcharge -- O(zones) post-hoc statistics replay over the already-metered prefix
	for zi := range zones {
		if zones[zi].Lo >= prefix {
			break
		}
		if zones[zi].CanPrune(spec.Rel, spec.Broad, spec.Query) {
			skipped++
		} else {
			scanned++
		}
	}
	sp.AddBlocks(columnar.StatBlocksScanned, scanned)
	sp.AddBlocks(columnar.StatBlocksSkipped, skipped)
	var rows []SumyRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every row was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if keep[i] {
			rows = append(rows, s.Rows[i])
		}
	}
	return NewSumy(name, rows, s.ExtraCols), partial, nil
}

// RangeSearchEngine is RangeSearchWith with an explicit engine. Range
// search reads only the tag-sorted SUMY rows, never the expression
// matrix, so both engines run the same merge and the choice is moot.
func RangeSearchEngine(c *exec.Ctl, sumys []*Sumy, firstTag, lastTag sage.TagID, cond RangeCondition, _ Engine) ([]RangeSearchRow, bool, error) {
	return RangeSearchWith(c, sumys, firstTag, lastTag, cond)
}
