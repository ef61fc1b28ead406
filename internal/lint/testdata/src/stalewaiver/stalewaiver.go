// Package stalewaiver exercises stale-waiver detection: a directive that
// suppresses a live finding is fine, one whose rule ran but no longer
// fires is itself a finding, one naming a rule the policy knows but the
// run did not execute is left alone (staleness undecidable), and one
// naming no rule at all is a finding.
package stalewaiver

import "fmt"

// Live carries a live waiver: the call below still fires fmt-print.
func Live() {
	//lfolint:ignore fmt-print this waiver is live: the call below still prints
	fmt.Println("live")
}

// Stale carries a dead waiver: nothing on the next line prints.
func Stale() int {
	//lfolint:ignore fmt-print the print was refactored away; directive left behind on purpose
	return 42
}

// Undecidable waives a rule the policy names but the run does not
// execute; staleness cannot be decided, so no finding.
func Undecidable() int {
	//lfolint:ignore float-equal rule not run in this test; must not be reported stale
	return 7
}

// Unknown waives a rule that no longer exists (its checks moved into
// flow-determinism): it can never suppress anything.
func Unknown() int {
	//lfolint:ignore time-now leftover waiver for a rule that was folded away
	return 9
}
