// Fixture for the //lfolint:ignore suppression mechanism, exercised with
// the fmt-print rule.
package suppress

import "fmt"

// StandaloneDirective is waived by the comment on the line above.
func StandaloneDirective() {
	//lfolint:ignore fmt-print fixture demonstrates a justified waiver
	fmt.Println("standalone")
}

// SameLineDirective is waived by the trailing comment.
func SameLineDirective() {
	fmt.Println("same line") //lfolint:ignore fmt-print same-line waivers work too
}

// WrongRule names a different rule, so fmt-print still fires.
func WrongRule() {
	//lfolint:ignore float-equal reason given but for an unrelated rule
	fmt.Println("wrong rule") // want "fmt.Println writes to process stdout"
}
