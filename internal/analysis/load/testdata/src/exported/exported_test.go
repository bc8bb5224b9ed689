package exported_test

import (
	"exported"
	"user"
)

// Both must type-check: Answer exists only in the variant with
// export_test.go, and user.Wrap must take and return that variant's T.
var (
	got  exported.T = exported.Answer()
	also exported.T = user.Wrap(got)
)
