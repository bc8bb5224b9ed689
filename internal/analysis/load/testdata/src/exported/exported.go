// Package exported keeps its helper unexported; export_test.go hands
// it to the external test package.
package exported

// T is a type that also reaches the external test through package user.
type T struct{ N int }

func answer() T { return T{N: 42} }
