package gen

// TotalTuples sums the entity instance sizes.
func (d *Dataset) TotalTuples() int {
	n := 0
	for _, e := range d.Entities {
		n += e.Instance.Size()
	}
	return n
}
