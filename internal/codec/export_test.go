package codec

// NewInflater exposes the inflater to the external test package, which
// needs the dataset profiles (an import cycle from inside package codec).
func NewInflater() func(dst, in []byte) error { return new(inflater).inflate }
