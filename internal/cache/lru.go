// Package cache provides a small, thread-safe, bounded LRU map. The
// shard store uses it to memoize compiled queries by pattern source. Values
// must be immutable once inserted — hits hand back the stored value
// itself.
package cache

import "sync"

// LRU is a bounded least-recently-used map. All methods are safe for
// concurrent use.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	// Doubly-linked list through a sentinel: root.next is the most
	// recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// New returns an LRU holding at most capacity entries. capacity must be
// at least 1. The map grows with its entries rather than being sized
// for capacity up front: many caches hold a handful of entries.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	l := &LRU[K, V]{capacity: capacity, items: make(map[K]*entry[K, V])}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

// Get returns the value stored under k and marks it most recently used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(e)
	return e.value, true
}

// Put stores v under k, evicting the least recently used entry when the
// cache is full. Storing an existing key replaces its value.
func (l *LRU[K, V]) Put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.items[k]; ok {
		e.value = v
		l.moveToFront(e)
		return
	}
	if len(l.items) >= l.capacity {
		lru := l.root.prev
		l.unlink(lru)
		delete(l.items, lru.key)
	}
	e := &entry[K, V]{key: k, value: v}
	l.items[k] = e
	l.pushFront(e)
}

// Values appends every stored value to dst, most recently used first,
// without marking any of them used.
func (l *LRU[K, V]) Values(dst []V) []V {
	l.mu.Lock()
	defer l.mu.Unlock()
	for e := l.root.next; e != &l.root; e = e.next {
		dst = append(dst, e.value)
	}
	return dst
}

// Clear removes every entry.
func (l *LRU[K, V]) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.items)
	l.root.prev = &l.root
	l.root.next = &l.root
}

// Len returns the number of stored entries.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

func (l *LRU[K, V]) moveToFront(e *entry[K, V]) {
	l.unlink(e)
	l.pushFront(e)
}

func (l *LRU[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (l *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &l.root
	e.next = l.root.next
	l.root.next.prev = e
	l.root.next = e
}
