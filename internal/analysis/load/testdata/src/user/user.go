// Package user imports exported, so an external test of exported that
// also imports user sees exported's types through two paths.
package user

import "exported"

// Wrap passes a T through.
func Wrap(t exported.T) exported.T { return t }
