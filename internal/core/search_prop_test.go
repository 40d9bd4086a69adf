package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gea/internal/exec"
	"gea/internal/interval"
	"gea/internal/sage"
)

// naiveRangeSearch is the reference RangeSearchWith is held to: the
// union of every table's in-window tags through a map, sort.Slice, then
// one Sumy.Row lookup per (tag, table).
func naiveRangeSearch(sumys []*Sumy, first, last sage.TagID, cond RangeCondition) []RangeSearchRow {
	set := map[sage.TagID]bool{}
	for _, s := range sumys {
		for _, r := range s.Rows {
			if r.Tag >= first && r.Tag <= last {
				set[r.Tag] = true
			}
		}
	}
	tags := make([]sage.TagID, 0, len(set))
	for t := range set {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	out := make([]RangeSearchRow, len(tags))
	for j, t := range tags {
		row := RangeSearchRow{Tag: t, Cells: make([]RangeCell, len(sumys))}
		for i, s := range sumys {
			sr, ok := s.Row(t)
			switch {
			case !ok:
				row.Cells[i] = RangeCell{Outcome: RangeNotExist}
			case cond(sr.Range):
				row.Cells[i] = RangeCell{Outcome: RangeSatisfied, Range: sr.Range}
			default:
				row.Cells[i] = RangeCell{Outcome: RangeNo}
			}
		}
		out[j] = row
	}
	return out
}

func renderRangeRows(rows []RangeSearchRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		line := fmt.Sprintf("%v", r.Tag)
		for _, cell := range r.Cells {
			line += fmt.Sprintf(" %v[%x,%x]", cell.Outcome, cell.Range.Min, cell.Range.Max)
		}
		out[i] = line
	}
	return out
}

// sumyOver aggregates the given tag columns of d over a random library
// subset, so callers control exactly which tags a table holds.
func sumyOver(t *testing.T, rng *rand.Rand, d *sage.Dataset, name string, tagIdx []int) *Sumy {
	t.Helper()
	e, err := NewEnum(name+"_members", d, randIndices(rng, d.NumLibraries(), 2), tagIdx)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Aggregate(name, e, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tagRun returns the tag indices [lo, hi).
func tagRun(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestRangeSearchMatchesNaiveReference holds the merge-based range
// search to the naive reference over randomized SUMYs: overlapping and
// disjoint tag sets, a table with no rows in the window, a repeated tag,
// a one-tag window, windows outside every tag, and one to three tables.
// Every case runs on both engines at workers 1 and 4; the rows must come
// back strictly ascending by tag and the unit charge must match.
func TestRangeSearchMatchesNaiveReference(t *testing.T) {
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := propDataset(t, seed)
			rng := rand.New(rand.NewSource(seed * 104729))
			n := d.NumTags()
			a := randSumy(t, rng, d, "a")
			b := randSumy(t, rng, d, "b")
			c := randSumy(t, rng, d, "c")
			low := sumyOver(t, rng, d, "low", tagRun(0, n/2))
			high := sumyOver(t, rng, d, "high", tagRun(n/2, n))
			// NewSumy keeps repeated tags; Sumy.Row resolves to the last.
			dupRows := append([]SumyRow(nil), a.Rows...)
			for i := 0; i < len(a.Rows); i += 3 {
				r := a.Rows[i]
				r.Range = interval.New(r.Range.Min+1, r.Range.Max+1000)
				dupRows = append(dupRows, r)
			}
			dup := NewSumy("dup", dupRows, nil)

			tags := d.Tags
			mid := tags[n/2+rng.Intn(n/2)]
			type rangeCase struct {
				name        string
				sumys       []*Sumy
				first, last sage.TagID
			}
			cases := []rangeCase{
				{"one table", []*Sumy{a}, tags[0], tags[n-1]},
				{"overlapping", []*Sumy{a, b}, tags[n/5], tags[4*n/5]},
				{"three tables", []*Sumy{a, b, c}, tags[0], tags[n-1]},
				{"disjoint", []*Sumy{low, high}, tags[0], tags[n-1]},
				{"table empty in window", []*Sumy{a, low, high}, tags[n/2], tags[n-1]},
				{"repeated tag", []*Sumy{dup, b}, tags[0], tags[n-1]},
				{"first equals last", []*Sumy{a, high}, mid, mid},
				{"window above every tag", []*Sumy{a, b}, tags[n-1] + 1, math.MaxUint32},
			}
			if tags[0] > 0 {
				cases = append(cases, rangeCase{"window below every tag", []*Sumy{low, high}, 0, tags[0] - 1})
			}
			for _, tc := range cases {
				cond := BroadOverlap(interval.New(0, float64(50+rng.Intn(500))))
				want := renderRangeRows(naiveRangeSearch(tc.sumys, tc.first, tc.last, cond))
				// The unit contract: one per row of every table, in the
				// window or not, plus one per candidate checked.
				wantUnits := int64(len(want))
				for _, s := range tc.sumys {
					wantUnits += int64(len(s.Rows))
				}
				for _, eng := range []Engine{EngineRow, EngineColumnar} {
					for _, w := range []int{1, 4} {
						c := exec.New(context.Background(), exec.Limits{Workers: w})
						rows, _, err := RangeSearchEngine(c, tc.sumys, tc.first, tc.last, cond, eng)
						if err != nil {
							t.Fatalf("%s (%v, workers %d): %v", tc.name, eng, w, err)
						}
						if c.Units() != wantUnits {
							t.Fatalf("%s (%v, workers %d): charged %d units, want %d", tc.name, eng, w, c.Units(), wantUnits)
						}
						for i := 1; i < len(rows); i++ {
							if rows[i-1].Tag >= rows[i].Tag {
								t.Fatalf("%s (%v, workers %d): rows %d, %d not strictly ascending: %v, %v",
									tc.name, eng, w, i-1, i, rows[i-1].Tag, rows[i].Tag)
							}
						}
						if err := sameLines(want, renderRangeRows(rows)); err != nil {
							t.Fatalf("%s (%v, workers %d): differs from the naive reference: %v", tc.name, eng, w, err)
						}
					}
				}
			}
		})
	}
}

func sameLines(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}
