//go:build !race

package experiments

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
