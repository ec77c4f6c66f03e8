//! Structurally-shared paged storage with page-granular copy-on-write.
//!
//! The catalog's mutation path used to pay `data.clone()` per write —
//! O(instance) no matter how small the delta. The container here makes
//! snapshotting cheap: state is split into fixed-size pages behind
//! [`Arc`]s, so cloning a snapshot bumps a handful of refcounts and a
//! point mutation copies only the page(s) it touches ([`Arc::make_mut`]).
//! Two snapshots that differ in one fact share every other page.
//!
//! [`PagedVec<T>`] is a dense, index-addressed vector paged in
//! [`PAGE_NODES`]-element pages, which are themselves grouped into
//! `Arc`-shared groups of [`GROUP_PAGES`] pages. The two levels matter for
//! write latency: with a flat page spine, cloning a snapshot still walks
//! one `Arc` per page — refcount traffic linear in instance size — while
//! grouping makes a clone O(n/2048) and a point write copy exactly one
//! group spine (64 pointers) plus one page. It backs [`crate::Structure`]'s
//! per-node records (labels + out/in adjacency, bundled so one node's
//! reads share one page chase) and the patched rows of a CSR view's
//! overlay ([`crate::FrozenStructure`]).
//!
//! Every actual page copy (a write to a page whose `Arc` is shared) bumps
//! the `sirup_catalog_page_cow_total` counter, so the write path's
//! allocation behaviour is observable end to end. Spine copies (pointer
//! arrays only) are not counted — no fact bytes move.

use crate::telemetry::{self, Counter};
use std::sync::Arc;

/// Elements per [`PagedVec`] page. 32 nodes per page keeps a page
/// copy-on-write (32 record clones) down at a microsecond or two while
/// the per-snapshot overhead stays at one pointer per 32 nodes.
pub const PAGE_NODES: usize = 32;
const PAGE_SHIFT: usize = 5;
const PAGE_MASK: usize = PAGE_NODES - 1;

/// Pages per [`PagedVec`] group (the second sharing level): one group
/// covers `32 * 64 = 2048` elements, so a snapshot clone touches one `Arc`
/// per 2048 elements and a write's group-spine copy is 64 pointers.
pub const GROUP_PAGES: usize = 64;
const GROUP_SHIFT: usize = 6;
const GROUP_MASK: usize = GROUP_PAGES - 1;

/// Heap bytes retained by one element of a page (shallow-exact for the
/// `Vec`-of-`Copy` element shapes the [`crate::Structure`] pages use).
pub trait HeapBytes {
    /// Approximate owned heap bytes (excluding `size_of::<Self>()`).
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// Count one page copy-on-write (the page was shared and had to be cloned).
#[inline]
fn count_cow() {
    telemetry::counter_add(Counter::PageCow, 1);
}

// ---------------------------------------------------------------------------
// PagedVec
// ---------------------------------------------------------------------------

/// A page: [`PAGE_NODES`] elements stored **inline** in the `Arc`
/// allocation (a fixed array, not a `Vec`), so reading an element derefs
/// the page pointer straight into the data — no separate buffer chase.
/// Slots at or past the vector's `len` are padding and always hold
/// `T::default()`, which keeps derived `PartialEq` canonical.
#[derive(Clone, PartialEq, Eq, Debug)]
struct PageBuf<T> {
    elems: [T; PAGE_NODES],
}

type Page<T> = Arc<PageBuf<T>>;

/// A group: up to [`GROUP_PAGES`] page pointers stored inline in the `Arc`
/// allocation. Missing pages (past the last page) are `None`.
#[derive(Clone, PartialEq, Eq, Debug)]
struct GroupBuf<T> {
    pages: [Option<Page<T>>; GROUP_PAGES],
}

/// A dense vector of `T` stored as `Arc`-shared groups of `Arc`-shared
/// pages: `clone` is one pointer bump per *group* (2048 elements),
/// `get_mut` copies only the touched group spine (64 pointers) and page
/// when they are shared with another snapshot. Both levels keep their
/// payload inline in the `Arc` allocation, so a read is `group ptr → page
/// ptr → element` — two dependent loads past the spine, the same depth as
/// the dense `Vec<Vec<T>>` it replaces.
///
/// Representation invariant: the set of pages is determined by `len`
/// (page `i` exists iff `i < len.div_ceil(PAGE_NODES)`), padding slots
/// beyond `len` always hold `T::default()`, and absent page slots are
/// `None`. Two `PagedVec`s with equal content therefore have equal
/// page structure, so `PartialEq` can compare page-wise (with the `Arc`
/// pointer-equality fast path at both levels).
///
/// ```
/// use sirup_core::paged::PagedVec;
///
/// let mut v: PagedVec<u32> = PagedVec::with_len(10_000);
/// *v.get_mut(7) = 42;
/// // Cloning a snapshot is O(groups): refcount bumps, no element copies.
/// let snapshot = v.clone();
/// // A point write copies only the touched page; the snapshot keeps the
/// // old value and every untouched page stays shared.
/// *v.get_mut(7) = 99;
/// assert_eq!(*snapshot.get(7), 42);
/// assert_eq!(*v.get(7), 99);
/// assert_eq!(*v.get(9_999), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct PagedVec<T> {
    groups: Vec<Arc<GroupBuf<T>>>,
    len: usize,
}

impl<T: Clone + Default> PagedVec<T> {
    /// An empty paged vector.
    pub fn new() -> PagedVec<T> {
        PagedVec {
            groups: Vec::new(),
            len: 0,
        }
    }

    /// `n` default elements. All pages share **one** allocation (and all
    /// full groups one spine) until first written — building a large
    /// empty structure is O(n / 2048).
    pub fn with_len(n: usize) -> PagedVec<T> {
        let mut v = PagedVec::new();
        v.len = n;
        if n == 0 {
            return v;
        }
        let page_count = n.div_ceil(PAGE_NODES);
        // Padding slots are T::default() — exactly what every page of an
        // all-default vector holds, so one proto serves all pages
        // (including the partial tail page).
        let proto: Page<T> = Arc::new(PageBuf {
            elems: std::array::from_fn(|_| T::default()),
        });
        let full_groups = page_count >> GROUP_SHIFT;
        if full_groups > 0 {
            let spine = Arc::new(GroupBuf {
                pages: std::array::from_fn(|_| Some(Arc::clone(&proto))),
            });
            v.groups.resize(full_groups, spine);
        }
        let tail_pages = page_count & GROUP_MASK;
        if tail_pages > 0 {
            v.groups.push(Arc::new(GroupBuf {
                pages: std::array::from_fn(|j| (j < tail_pages).then(|| Arc::clone(&proto))),
            }));
        }
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared read access to element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        let pi = i >> PAGE_SHIFT;
        let page = self.groups[pi >> GROUP_SHIFT].pages[pi & GROUP_MASK]
            .as_ref()
            .expect("page within len");
        &page.elems[i & PAGE_MASK]
    }

    /// Mutable access to element `i`, copying the containing group spine
    /// and page first if they are shared with another snapshot
    /// (page-granular copy-on-write).
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let pi = i >> PAGE_SHIFT;
        let g = Arc::make_mut(&mut self.groups[pi >> GROUP_SHIFT]);
        let slot = g.pages[pi & GROUP_MASK].as_mut().expect("page within len");
        if Arc::strong_count(slot) > 1 {
            count_cow();
        }
        &mut Arc::make_mut(slot).elems[i & PAGE_MASK]
    }

    /// Append an element (fills the last page's padding before opening a
    /// new page, and the last group before opening a new group —
    /// preserving the canonical layout).
    pub fn push(&mut self, v: T) {
        let i = self.len;
        let pi = i >> PAGE_SHIFT;
        if i & PAGE_MASK == 0 {
            // New page (possibly a new group).
            let mut buf = PageBuf {
                elems: std::array::from_fn(|_| T::default()),
            };
            buf.elems[0] = v;
            let page = Arc::new(buf);
            if pi & GROUP_MASK == 0 {
                let mut gb = GroupBuf {
                    pages: std::array::from_fn(|_| None),
                };
                gb.pages[0] = Some(page);
                self.groups.push(Arc::new(gb));
            } else {
                let g = Arc::make_mut(self.groups.last_mut().expect("group exists"));
                g.pages[pi & GROUP_MASK] = Some(page);
            }
        } else {
            // Overwrite the next padding slot of the partial last page.
            let g = Arc::make_mut(self.groups.last_mut().expect("group exists"));
            let slot = g.pages[pi & GROUP_MASK].as_mut().expect("page exists");
            if Arc::strong_count(slot) > 1 {
                count_cow();
            }
            Arc::make_mut(slot).elems[i & PAGE_MASK] = v;
        }
        self.len += 1;
    }

    /// Iterate over all elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_NODES)
    }

    /// How many of this vector's pages are physically shared (same
    /// allocation) with `other` at the same position — the structural
    /// sharing between two snapshots related by mutation. A whole shared
    /// group counts all its pages without walking them.
    pub fn shared_pages_with(&self, other: &PagedVec<T>) -> usize {
        let pages = self.page_count();
        self.groups
            .iter()
            .zip(&other.groups)
            .enumerate()
            .map(|(gi, (a, b))| {
                if Arc::ptr_eq(a, b) {
                    (pages - gi * GROUP_PAGES).min(GROUP_PAGES)
                } else {
                    a.pages
                        .iter()
                        .zip(&b.pages)
                        .filter(
                            |(pa, pb)| matches!((pa, pb), (Some(x), Some(y)) if Arc::ptr_eq(x, y)),
                        )
                        .count()
                }
            })
            .sum()
    }

    /// Exact retained heap bytes (group spines + page buffers + element
    /// payloads), walking every element — for tests and cold paths; the
    /// mutation hot path estimates from counters instead. Shared pages
    /// count fully: this is "bytes reachable", not "bytes unique".
    pub fn retained_bytes(&self) -> usize
    where
        T: HeapBytes,
    {
        let spines = self.groups.capacity() * std::mem::size_of::<Arc<GroupBuf<T>>>()
            + self.groups.len() * std::mem::size_of::<GroupBuf<T>>();
        let pages = self.page_count() * std::mem::size_of::<PageBuf<T>>();
        spines + pages + self.iter().map(HeapBytes::heap_bytes).sum::<usize>()
    }
}

impl<T: std::fmt::Debug + Clone + Default> std::fmt::Debug for PagedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_vec_pages_and_cow() {
        let mut v: PagedVec<Vec<u32>> = PagedVec::with_len(200);
        assert_eq!(v.len(), 200);
        let pages = 200_usize.div_ceil(PAGE_NODES);
        assert_eq!(v.page_count(), pages);
        // All pages share with a snapshot until written.
        let snap = v.clone();
        assert_eq!(v.shared_pages_with(&snap), pages);
        v.get_mut(130).push(7);
        assert_eq!(v.get(130), &[7]);
        assert!(snap.get(130).is_empty(), "snapshot is untouched");
        // Only the touched page diverged.
        assert_eq!(v.shared_pages_with(&snap), pages - 1);
        assert_eq!(v, v.clone());
        assert_ne!(v, snap);
    }

    #[test]
    fn paged_vec_groups_span_many_pages() {
        // 3 full groups + 2 full pages + a partial page.
        let n = 3 * GROUP_PAGES * PAGE_NODES + 2 * PAGE_NODES + 7;
        let mut v: PagedVec<Vec<u32>> = PagedVec::with_len(n);
        assert_eq!(v.len(), n);
        assert_eq!(v.page_count(), 3 * GROUP_PAGES + 3);
        let snap = v.clone();
        assert_eq!(v.shared_pages_with(&snap), v.page_count());
        // A write deep in a full group diverges exactly one page.
        v.get_mut(GROUP_PAGES * PAGE_NODES + 5).push(1);
        assert_eq!(v.shared_pages_with(&snap), v.page_count() - 1);
        assert!(snap.get(GROUP_PAGES * PAGE_NODES + 5).is_empty());
        // Content equality is layout-independent of build path.
        let mut rebuilt: PagedVec<Vec<u32>> = PagedVec::new();
        for i in 0..n {
            rebuilt.push(v.get(i).clone());
        }
        assert_eq!(rebuilt, v);
    }

    #[test]
    fn paged_vec_push_fills_last_page() {
        let mut v: PagedVec<Vec<u32>> = PagedVec::new();
        for i in 0..PAGE_NODES + 1 {
            v.push(vec![i as u32]);
        }
        assert_eq!(v.page_count(), 2);
        assert_eq!(v.len(), PAGE_NODES + 1);
        assert_eq!(v.iter().count(), PAGE_NODES + 1);
        assert_eq!(v.get(PAGE_NODES), &[PAGE_NODES as u32]);
        assert!(v.retained_bytes() > 0);
    }
}
