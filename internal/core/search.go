package core

import (
	"context"
	"fmt"
	"sort"

	"gea/internal/exec"
	"gea/internal/exec/shard"
	"gea/internal/interval"
	"gea/internal/sage"
)

// This file implements the search operations of Section 4.4: range
// arithmetic over multiple SUMY tables (Figures 4.16-4.17) and the general
// expression-value lookups of the SAGE database (Figures 4.23-4.26).

// RangeOutcome is one cell of a range-arithmetic search result.
type RangeOutcome int

// Outcomes, matching the GUI's display codes.
const (
	// RangeSatisfied: the relation holds; the actual range is reported.
	RangeSatisfied RangeOutcome = iota
	// RangeNo ("NO"): the tag exists but the relation does not hold.
	RangeNo
	// RangeNotExist ("NE"): the tag does not exist in the SUMY table.
	RangeNotExist
)

// String renders the outcome code as the GUI does.
func (o RangeOutcome) String() string {
	switch o {
	case RangeSatisfied:
		return "OK"
	case RangeNo:
		return "NO"
	default:
		return "NE"
	}
}

// RangeCell is the outcome for one (tag, SUMY) pair.
type RangeCell struct {
	Outcome RangeOutcome
	Range   interval.Interval // valid when Outcome == RangeSatisfied
}

// RangeSearchRow is one row of a multi-SUMY range search.
type RangeSearchRow struct {
	Tag   sage.TagID
	Cells []RangeCell // parallel to the searched SUMY tables
}

// RangeCondition decides whether a tag's range satisfies a range-arithmetic
// search. Use StrictRelation for one of Allen's thirteen relations or
// BroadOverlap for the GUI's inclusive "overlaps" (any shared point).
type RangeCondition func(interval.Interval) bool

// StrictRelation holds when the range stands in exactly relation rel to
// query.
func StrictRelation(rel interval.Relation, query interval.Interval) RangeCondition {
	return func(r interval.Interval) bool { return interval.Holds(rel, r, query) }
}

// BroadOverlap holds when the range shares at least one point with query —
// the semantics of the Figure 4.16 "Overlaps" search, where the tag range
// [20, 616] satisfies the query [10, 700] even though Allen classifies the
// pair as "during".
func BroadOverlap(query interval.Interval) RangeCondition {
	return func(r interval.Interval) bool { return interval.AnyOverlap(r, query) }
}

// RangeSearch checks, for each tag in [firstTag, lastTag], whether its range
// in each SUMY table satisfies the condition — the Figure 4.16 search. Tags
// outside every table are omitted.
func RangeSearch(sumys []*Sumy, firstTag, lastTag sage.TagID, cond RangeCondition) ([]RangeSearchRow, error) {
	rows, _, err := RangeSearchWith(exec.Background(), sumys, firstTag, lastTag, cond)
	return rows, err
}

// RangeSearchCtx is RangeSearch under execution governance; on budget
// exhaustion the tags examined so far form a flagged partial report.
func RangeSearchCtx(ctx context.Context, sumys []*Sumy, firstTag, lastTag sage.TagID, cond RangeCondition, lim exec.Limits) ([]RangeSearchRow, exec.Trace, error) {
	c := exec.New(ctx, lim)
	var rows []RangeSearchRow
	var partial bool
	err := exec.Guard("core.RangeSearch", "", func() error {
		var err error
		rows, partial, err = RangeSearchWith(c, sumys, firstTag, lastTag, cond)
		return err
	})
	if err != nil {
		rows = nil
	}
	return rows, c.Snapshot(partial), err
}

// RangeSearchWith is the metered implementation; one work unit is one
// SUMY row during tag collection or one candidate tag checked.
// Collection merges the tables' in-window rows (mergeCandidates).
// Checking evaluates through the shard substrate, each worker filling
// only its own rows, so the report is bit-identical at any worker
// count. The condition must be a pure function of its interval.
func RangeSearchWith(c *exec.Ctl, sumys []*Sumy, firstTag, lastTag sage.TagID, cond RangeCondition) (_ []RangeSearchRow, partial bool, err error) {
	sp := c.StartSpan("core.RangeSearch")
	sp.SetInput("%d sumy tables, tag range %v-%v", len(sumys), firstTag, lastTag)
	defer c.EndSpan(sp, &partial, &err)
	if len(sumys) == 0 {
		return nil, false, fmt.Errorf("core: range search needs at least one SUMY table")
	}
	if firstTag > lastTag {
		return nil, false, fmt.Errorf("core: tag range %v-%v is inverted", firstTag, lastTag)
	}
	// A budget stop during collection discards the incomplete candidate
	// set: a report built from half-collected tags would not be a
	// prefix of the full report.
	tags, at, err := mergeCandidates(c, sumys, firstTag, lastTag)
	if exec.IsBudget(err) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}

	k := len(sumys)
	out := make([]RangeSearchRow, len(tags))
	cells := make([]RangeCell, len(tags)*k) // one backing array for every row's cells
	prefix, partial, err := shard.For(c, len(tags), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for j := lo; j < hi; j++ {
			if err := c.Point(1); err != nil {
				return j - lo, err
			}
			row := cells[j*k : (j+1)*k : (j+1)*k]
			for i, s := range sumys {
				switch r := at[j*k+i]; {
				case r < 0:
					row[i] = RangeCell{Outcome: RangeNotExist}
				case cond(s.Rows[r].Range):
					row[i] = RangeCell{Outcome: RangeSatisfied, Range: s.Rows[r].Range}
				default:
					row[i] = RangeCell{Outcome: RangeNo}
				}
			}
			out[j] = RangeSearchRow{Tag: tags[j], Cells: row}
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	return out[:prefix], partial, nil
}

// mergeCandidates merges the tables' in-window rows, each table already
// sorted by tag (NewSumy sorts it), into the ascending, duplicate-free
// tags in [firstTag, lastTag]. For candidate j, at[j*len(sumys)+i] is
// the index of its row in sumys[i], or -1 where that table lacks the
// tag; within a table a repeated tag resolves to its last row, as
// Sumy.Row does. Each table's window is found by binary search. Every
// row is still charged one unit, in the window or not, so the charge
// does not depend on where the window lies. Finding the smallest head
// costs O(len(sumys)) per step, which beats a heap for the two or three
// tables a search compares.
func mergeCandidates(c *exec.Ctl, sumys []*Sumy, firstTag, lastTag sage.TagID) (tags []sage.TagID, at []int32, err error) {
	next := make([]int, len(sumys)) // first unmerged row of each window
	end := make([]int, len(sumys))  // end of each window
	for i, s := range sumys {
		next[i] = sort.Search(len(s.Rows), func(j int) bool { return s.Rows[j].Tag >= firstTag })
		end[i] = sort.Search(len(s.Rows), func(j int) bool { return s.Rows[j].Tag > lastTag })
		for n := len(s.Rows) - (end[i] - next[i]); n > 0; n-- {
			if err := c.Point(1); err != nil {
				return nil, nil, err
			}
		}
	}
	for {
		var t sage.TagID
		found := false
		for i, s := range sumys {
			if next[i] < end[i] && (!found || s.Rows[next[i]].Tag < t) {
				t, found = s.Rows[next[i]].Tag, true
			}
		}
		if !found {
			return tags, at, nil
		}
		for i, s := range sumys {
			r := int32(-1)
			for next[i] < end[i] && s.Rows[next[i]].Tag == t {
				if err := c.Point(1); err != nil {
					return nil, nil, err
				}
				r = int32(next[i])
				next[i]++
			}
			at = append(at, r)
		}
		tags = append(tags, t)
	}
}

// AnyTagSearch returns every tag of the SUMY table whose range satisfies the
// condition — the "Any" mode of Figure 4.17. Non-satisfying tags are
// omitted.
func AnyTagSearch(s *Sumy, cond RangeCondition) []SumyRow {
	var out []SumyRow
	for _, r := range s.Rows {
		if cond(r.Range) {
			out = append(out, r)
		}
	}
	return out
}

// FrequencyResult is one row of an expression-value search: a tag's levels
// across the selected libraries (Figure 4.25).
type FrequencyResult struct {
	Tag    sage.TagID
	Values []float64 // parallel to the library selection
}

// FrequencySearch extracts expression values for every tag in
// [firstTag, lastTag] across the named libraries; nil names means all
// libraries. Tags absent from the dataset's universe are omitted; absent
// counts are 0.
func FrequencySearch(d *sage.Dataset, firstTag, lastTag sage.TagID, libNames []string) ([]FrequencyResult, []string, error) {
	if firstTag > lastTag {
		return nil, nil, fmt.Errorf("core: tag range %v-%v is inverted", firstTag, lastTag)
	}
	var rows []int
	var names []string
	if libNames == nil {
		for i, m := range d.Libs {
			rows = append(rows, i)
			names = append(names, m.Name)
		}
	} else {
		for _, n := range libNames {
			i, ok := d.LibraryRow(n)
			if !ok {
				return nil, nil, fmt.Errorf("core: unknown library %q", n)
			}
			rows = append(rows, i)
			names = append(names, n)
		}
	}
	var out []FrequencyResult
	for j, t := range d.Tags {
		if t < firstTag || t > lastTag {
			continue
		}
		vals := make([]float64, len(rows))
		for k, r := range rows {
			vals[k] = d.Expr[r][j]
		}
		out = append(out, FrequencyResult{Tag: t, Values: vals})
	}
	return out, names, nil
}

// SingleTagSearch extracts one tag's expression values across the named
// libraries (Figure 4.26).
func SingleTagSearch(d *sage.Dataset, tag sage.TagID, libNames []string) (FrequencyResult, []string, error) {
	res, names, err := FrequencySearch(d, tag, tag, libNames)
	if err != nil {
		return FrequencyResult{}, nil, err
	}
	if len(res) == 0 {
		return FrequencyResult{}, nil, fmt.Errorf("core: tag %v not in the dataset", tag)
	}
	return res[0], names, nil
}
