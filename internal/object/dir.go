package object

import "chimera/internal/types"

// dirBits is the number of OID bits one level of a directory resolves:
// each node has 1<<dirBits slots.
const (
	dirBits = 6
	dirFan  = 1 << dirBits
	dirMask = dirFan - 1
)

// dir is a 64-way radix directory from OID to object: the live store's
// index and each published snapshot's. Leaves hold the objects of 64
// consecutive OIDs; an inner node at the level just above the leaves
// points to leaves, any higher one to inner nodes. The height grows with
// the largest OID set (two levels cover OIDs below 4 096, three below
// 262 144) and never shrinks while the directory holds an object. Every
// node counts its non-nil slots, and a node whose count falls to zero is
// dropped from its parent, so the nodes follow the live objects, not the
// OID allocator.
//
// Nodes are stamped with the epoch of the directory that made them, and
// a directory writes in place only into nodes of its own epoch: it
// copies any other node on the path to the slot it writes, root first.
// The live store's directory and every node it makes carry epoch 0, so
// it always writes in place. A snapshot's directory starts as its
// predecessor's under a new epoch: what it writes copies one path per
// leaf written and shares the rest, and the predecessor's nodes are never
// changed (see Store.materialize).
//
// A deletion keeps the last leaf and inner node it dropped, when d owns
// them, and the next node d makes reuses them: a store whose objects
// come and go at growing OIDs, each alone in its leaf, makes no node per
// object.
type dir struct {
	root       *inner
	shift      uint // bit offset of the root's digit: dirBits*(height-1)
	n          int  // objects held
	epoch      uint64
	spareInner *inner
	spareLeaf  *leaf
}

// inner is a node above the leaves: leaves at the level just above them,
// kids at any higher one.
type inner struct {
	epoch  uint64
	n      int
	kids   [dirFan]*inner
	leaves [dirFan]*leaf
}

// leaf holds the objects of 64 consecutive OIDs.
type leaf struct {
	epoch uint64
	n     int
	objs  [dirFan]*Object
}

// get returns the object at oid and whether there is one.
func (d *dir) get(oid types.OID) (*Object, bool) {
	k := uint64(oid)
	nd := d.root
	if nd == nil || k>>(d.shift+dirBits) != 0 {
		return nil, false
	}
	for sh := d.shift; sh > dirBits; sh -= dirBits {
		if nd = nd.kids[k>>sh&dirMask]; nd == nil {
			return nil, false
		}
	}
	lf := nd.leaves[k>>dirBits&dirMask]
	if lf == nil {
		return nil, false
	}
	o := lf.objs[k&dirMask]
	return o, o != nil
}

// set puts o, which is not nil, at oid, which is at least 1.
func (d *dir) set(oid types.OID, o *Object) {
	k := uint64(oid)
	if d.root == nil {
		d.root, d.shift = d.newInner(), dirBits
		for k>>(d.shift+dirBits) != 0 {
			d.shift += dirBits
		}
	}
	for k>>(d.shift+dirBits) != 0 {
		up := d.newInner()
		up.n, up.kids[0] = 1, d.root
		d.root, d.shift = up, d.shift+dirBits
	}
	nd := d.ownInner(d.root)
	d.root = nd
	for sh := d.shift; sh > dirBits; sh -= dirBits {
		i := k >> sh & dirMask
		kid := nd.kids[i]
		if kid == nil {
			kid = d.newInner()
			nd.n++
		} else {
			kid = d.ownInner(kid)
		}
		nd.kids[i] = kid
		nd = kid
	}
	i := k >> dirBits & dirMask
	lf := nd.leaves[i]
	if lf == nil {
		lf = d.newLeaf()
		nd.n++
	} else {
		lf = d.ownLeaf(lf)
	}
	nd.leaves[i] = lf
	j := k & dirMask
	if lf.objs[j] == nil {
		lf.n++
		d.n++
	}
	lf.objs[j] = o
}

// del removes the object at oid, if any. A leaf it empties is dropped
// from its parent without being copied, and so is every inner node the
// drop empties, the root included: an empty directory holds no node.
func (d *dir) del(oid types.OID) {
	if _, ok := d.get(oid); !ok {
		return
	}
	k := uint64(oid)
	// path[i] is the inner node at depth i; the last of them points to
	// the leaf. A 64-bit key needs at most 11 levels of 6 bits.
	var path [(64 + dirBits - 1) / dirBits]*inner
	h := 0
	for nd, sh := d.root, d.shift; ; sh -= dirBits {
		path[h] = nd
		h++
		if sh == dirBits {
			break
		}
		nd = nd.kids[k>>sh&dirMask]
	}
	d.n--
	lf := path[h-1].leaves[k>>dirBits&dirMask]
	// cut is the depth of the node that keeps the entry the removal
	// changes: the leaf (depth h) when it keeps other objects, else the
	// deepest inner node that keeps another child.
	cut := h
	if lf.n == 1 {
		for cut = h - 1; cut > 0 && path[cut].n == 1; cut-- {
		}
		empty := cut == 0 && path[0].n == 1
		if lf.epoch == d.epoch {
			d.spareLeaf = lf
		}
		if (empty || cut < h-1) && path[h-1].epoch == d.epoch {
			d.spareInner = path[h-1]
		}
		if empty {
			d.root, d.shift = nil, 0
			return
		}
	}
	// Own the path down to the cut, parents pointing at the copies.
	path[0] = d.ownInner(path[0])
	d.root = path[0]
	sh := d.shift
	for i := 1; i < h && i <= cut; i++ {
		c := k >> sh & dirMask
		path[i] = d.ownInner(path[i])
		path[i-1].kids[c] = path[i]
		sh -= dirBits
	}
	switch {
	case cut == h:
		lf = d.ownLeaf(lf)
		path[h-1].leaves[k>>dirBits&dirMask] = lf
		lf.objs[k&dirMask] = nil
		lf.n--
	case cut == h-1:
		path[cut].leaves[k>>dirBits&dirMask] = nil
		path[cut].n--
	default:
		path[cut].kids[k>>(d.shift-dirBits*uint(cut))&dirMask] = nil
		path[cut].n--
	}
}

// newInner returns an empty inner node stamped with d's epoch: the spare,
// if d owns it.
func (d *dir) newInner() *inner {
	if nd := d.spareInner; nd != nil && nd.epoch == d.epoch {
		d.spareInner = nil
		*nd = inner{epoch: d.epoch}
		return nd
	}
	return &inner{epoch: d.epoch}
}

// newLeaf returns an empty leaf stamped with d's epoch: the spare, if d
// owns it.
func (d *dir) newLeaf() *leaf {
	if lf := d.spareLeaf; lf != nil && lf.epoch == d.epoch {
		d.spareLeaf = nil
		*lf = leaf{epoch: d.epoch}
		return lf
	}
	return &leaf{epoch: d.epoch}
}

// ownInner returns nd if d made it, else a copy stamped with d's epoch.
func (d *dir) ownInner(nd *inner) *inner {
	if nd.epoch == d.epoch {
		return nd
	}
	c := *nd
	c.epoch = d.epoch
	return &c
}

// ownLeaf returns lf if d made it, else a copy stamped with d's epoch.
func (d *dir) ownLeaf(lf *leaf) *leaf {
	if lf.epoch == d.epoch {
		return lf
	}
	c := *lf
	c.epoch = d.epoch
	return &c
}

// each calls f on every object in ascending OID order.
func (d *dir) each(f func(*Object)) {
	if d.root != nil {
		d.root.each(d.shift, f)
	}
}

func (nd *inner) each(shift uint, f func(*Object)) {
	if shift == dirBits {
		for _, lf := range nd.leaves {
			if lf == nil {
				continue
			}
			for _, o := range lf.objs {
				if o != nil {
					f(o)
				}
			}
		}
		return
	}
	for _, kid := range nd.kids {
		if kid != nil {
			kid.each(shift-dirBits, f)
		}
	}
}
