// Fixture for malformed suppression directives: a waiver without a reason
// is itself reported and suppresses nothing. Checked explicitly by
// TestMalformedSuppression rather than via want annotations.
package suppressbad

import "fmt"

// MissingReason carries a reasonless directive.
func MissingReason() {
	//lfolint:ignore fmt-print
	fmt.Println("unwaived")
}
