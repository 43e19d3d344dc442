package array

// pageNode is one page on a pageList.
type pageNode struct {
	prev, next *pageNode
	page       int
}

// pageList is a doubly linked list of page numbers — the cache's
// recency order, the write-back buffer's dirty FIFO — that keeps the
// nodes it unlinks for its next insert, so pages joining and leaving it
// allocate nothing once it has held that many at a time. The zero value
// is an empty list; a list must not be copied.
type pageList struct {
	root pageNode  // sentinel: root.next is the front, root.prev the back
	free *pageNode // unlinked nodes, chained through next
	n    int
}

// Len returns the number of pages on the list.
func (l *pageList) Len() int { return l.n }

// front returns the first node, nil when the list is empty.
func (l *pageList) front() *pageNode {
	if l.n == 0 {
		return nil
	}
	return l.root.next
}

// back returns the last node, nil when the list is empty.
func (l *pageList) back() *pageNode {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

func (l *pageList) pushFront(page int) *pageNode { return l.insertAfter(page, l.sentinel()) }

func (l *pageList) pushBack(page int) *pageNode { return l.insertAfter(page, l.sentinel().prev) }

// remove unlinks nd and keeps it for a later insert.
func (l *pageList) remove(nd *pageNode) {
	l.unlink(nd)
	*nd = pageNode{next: l.free}
	l.free = nd
}

// moveToFront relinks nd at the front.
func (l *pageList) moveToFront(nd *pageNode) {
	l.unlink(nd)
	l.link(nd, &l.root)
}

// sentinel returns the root, linking it to itself on first use.
func (l *pageList) sentinel() *pageNode {
	if l.root.next == nil {
		l.root.next, l.root.prev = &l.root, &l.root
	}
	return &l.root
}

// insertAfter links a node for page right after at, reusing a removed
// node when there is one.
func (l *pageList) insertAfter(page int, at *pageNode) *pageNode {
	nd := l.free
	if nd != nil {
		l.free = nd.next
	} else {
		nd = new(pageNode)
	}
	*nd = pageNode{page: page}
	l.link(nd, at)
	return nd
}

func (l *pageList) link(nd, at *pageNode) {
	nd.prev, nd.next = at, at.next
	at.next.prev = nd
	at.next = nd
	l.n++
}

func (l *pageList) unlink(nd *pageNode) {
	nd.prev.next = nd.next
	nd.next.prev = nd.prev
	l.n--
}
