package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"xmlest/internal/pattern"
)

func TestCountBudgetMatchesCount(t *testing.T) {
	st := NewStore(allTagsSpec())
	for _, tr := range []struct{ f, tas int }{{3, 2}, {5, 1}, {2, 4}} {
		if _, err := st.AppendTree(doc(tr.f, tr.tas)); err != nil {
			t.Fatal(err)
		}
	}
	set := st.Current()
	for _, src := range []string{
		"//department//faculty",
		"//department//faculty//TA",
		"//faculty[.//TA]//name",
	} {
		p := pattern.MustParse(src)
		want, err := set.Count(p)
		if err != nil {
			t.Fatalf("Count(%s): %v", src, err)
		}
		got, err := set.CountBudget(p, time.Time{})
		if err != nil {
			t.Fatalf("CountBudget(%s): %v", src, err)
		}
		if got != want {
			t.Errorf("CountBudget(%s) = %v, Count = %v", src, got, want)
		}
	}
}

func TestCountBudgetSingleNode(t *testing.T) {
	st := NewStore(allTagsSpec())
	if _, err := st.AppendTree(doc(3, 2)); err != nil {
		t.Fatal(err)
	}
	set := st.Current()
	p := pattern.MustParse("//faculty")
	want, err := set.Count(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := set.CountBudget(p, time.Time{})
	if err != nil {
		t.Fatalf("CountBudget: %v", err)
	}
	if got != want || got != 3 {
		t.Errorf("single-node CountBudget = %v, want %v (= 3)", got, want)
	}
}

func TestCountBudgetSummaryOnly(t *testing.T) {
	st := NewStore(allTagsSpec())
	if _, err := st.AppendTree(doc(3, 2)); err != nil {
		t.Fatal(err)
	}
	blob, err := st.Current().Marshal(defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, err = loaded.CountBudget(pattern.MustParse("//department//faculty"), time.Time{})
	if !errors.Is(err, ErrSummaryOnly) {
		t.Errorf("summary-only CountBudget err = %v, want ErrSummaryOnly", err)
	}
	// Count carries the same sentinel for callers that classify.
	_, err = loaded.Count(pattern.MustParse("//department//faculty"))
	if !errors.Is(err, ErrSummaryOnly) {
		t.Errorf("summary-only Count err = %v, want ErrSummaryOnly", err)
	}
}

func TestCountBudgetExpiredDeadline(t *testing.T) {
	// The deadline is checked before each shard: an expired one aborts
	// before the first count, with an error the accuracy monitor
	// classifies as a blown budget.
	st := NewStore(allTagsSpec())
	for i := 0; i < 2; i++ {
		if _, err := st.AppendTree(doc(30, 1)); err != nil {
			t.Fatal(err)
		}
	}
	p := pattern.MustParse("//department//faculty//TA")
	_, err := st.Current().CountBudget(p, time.Now().Add(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline err = %v, want context.DeadlineExceeded", err)
	}
}
