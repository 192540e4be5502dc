package dht

// splitmix is a node's private generator: splitmix64 (Steele et al., "Fast
// Splittable Pseudorandom Number Generators") held by value, where
// math/rand's source would cost every simulated host a 4.9 KiB table. Each
// method draws what the same method of rand.New over a splitmix64 Source
// draws, Read's carried bytes included.
type splitmix struct {
	state   uint64
	readVal uint64 // Read's unread bytes, readPos of them
	readPos int8
}

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns a uniform 32-bit value.
func (r *splitmix) Uint32() uint32 { return uint32(r.next() >> 32) }

// Intn returns a uniform int in [0, n). It panics unless 0 < n < 2^31.
func (r *splitmix) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("dht: Intn argument out of range")
	}
	m := uint64(n)
	if m&(m-1) == 0 {
		return int(r.next() >> 33 & (m - 1))
	}
	top := 1<<31 - 1 - 1<<31%m // largest 31-bit draw free of modulo bias
	v := r.next() >> 33
	for v > top {
		v = r.next() >> 33
	}
	return int(v % m)
}

// Read fills p with random bytes, seven from each draw.
func (r *splitmix) Read(p []byte) {
	for i := range p {
		if r.readPos == 0 {
			r.readVal, r.readPos = r.next()>>1, 7
		}
		p[i] = byte(r.readVal)
		r.readVal >>= 8
		r.readPos--
	}
}
