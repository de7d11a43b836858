//go:build !race

package chip

const raceEnabled = false
