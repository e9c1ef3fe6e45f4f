package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	l := New[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	l.Put("c", 3) // evicts b: a was refreshed by the Get above
	if _, ok := l.Get("b"); ok {
		t.Fatalf("b should have been evicted")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("a evicted prematurely: %v, %v", v, ok)
	}
	if v, ok := l.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) = %v, %v", v, ok)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLRUReplace(t *testing.T) {
	l := New[string, int](2)
	l.Put("a", 1)
	l.Put("a", 9)
	if v, _ := l.Get("a"); v != 9 {
		t.Fatalf("replaced value = %v, want 9", v)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestLRUValuesAndClear(t *testing.T) {
	l := New[string, int](3)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3)
	l.Get("a")
	if got := fmt.Sprint(l.Values(nil)); got != "[1 3 2]" {
		t.Fatalf("Values = %s, want [1 3 2] (most recent first)", got)
	}
	// Values marks nothing used: b stays least recent and goes first.
	l.Put("d", 4)
	if _, ok := l.Get("b"); ok {
		t.Fatal("b survived eviction after Values")
	}
	l.Clear()
	if l.Len() != 0 || len(l.Values(nil)) != 0 {
		t.Fatalf("after Clear: Len %d, Values %v", l.Len(), l.Values(nil))
	}
	l.Put("e", 5)
	if v, ok := l.Get("e"); !ok || v != 5 || l.Len() != 1 {
		t.Fatalf("Put after Clear: %v, %v, Len %d", v, ok, l.Len())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	l := New[int, int](0) // clamped to 1
	l.Put(1, 1)
	l.Put(2, 2)
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := New[string, int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				if v, ok := l.Get(k); ok && v < 0 {
					t.Error("negative value")
					return
				}
				l.Put(k, i)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() > 32 {
		t.Fatalf("Len = %d exceeds capacity", l.Len())
	}
}
