//go:build !race

package xmlest_test

const raceEnabled = false
