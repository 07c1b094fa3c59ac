//! The [`Grid`]: a sheet of gridded paper.

use crate::{CellId, Color, Coord, Region};

/// A rectangular raster of colored cells — the "gridded paper" the activity
/// hands out.
///
/// Cells start [`Color::Blank`] and are painted via [`Grid::paint`]. The grid
/// deliberately allows repainting (a later flag layer may overpaint an
/// earlier one — the painter's-algorithm approach the paper discusses for the
/// flag of Great Britain) and records how many paint strokes each cell has
/// received so that layered and flat colorings can be distinguished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    width: u32,
    height: u32,
    cells: Vec<Color>,
    strokes: Vec<u16>,
}

impl Grid {
    /// Create a blank grid. Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be nonzero");
        let n = (width as usize) * (height as usize);
        Grid {
            width,
            height,
            cells: vec![Color::Blank; n],
            strokes: vec![0; n],
        }
    }

    /// Parse a grid from the compact golden-test format produced by
    /// [`crate::render::to_ascii`]: one line per row, one
    /// [`Color::code`] character per cell. Whitespace-only lines are
    /// skipped; all rows must have equal length.
    pub fn parse(text: &str) -> Result<Grid, String> {
        let rows: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        if rows.is_empty() {
            return Err("empty grid text".to_owned());
        }
        let width = rows[0].chars().count();
        let mut cells = Vec::with_capacity(width * rows.len());
        for (y, row) in rows.iter().enumerate() {
            if row.chars().count() != width {
                return Err(format!(
                    "row {y} has {} cells, expected {width}",
                    row.chars().count()
                ));
            }
            for (x, ch) in row.chars().enumerate() {
                let color = Color::from_code(ch)
                    .ok_or_else(|| format!("unknown color code {ch:?} at ({x}, {y})"))?;
                cells.push(color);
            }
        }
        let strokes = cells.iter().map(|c| u16::from(c.is_painted())).collect();
        Ok(Grid {
            width: width as u32,
            height: rows.len() as u32,
            cells,
            strokes,
        })
    }

    /// Grid width in cells.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has zero cells (never true: dimensions are nonzero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether the coordinate lies on the grid.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// The color of a cell.
    #[inline]
    pub fn get(&self, id: CellId) -> Color {
        self.cells[id.index()]
    }

    /// The color at a coordinate.
    #[inline]
    pub fn get_at(&self, c: Coord) -> Color {
        self.get(c.to_id(self.width))
    }

    /// Paint a cell, returning the color it had before.
    ///
    /// Painting with [`Color::Blank`] is rejected — erasing is not a thing
    /// you can do with a marker on paper.
    #[inline]
    pub fn paint(&mut self, id: CellId, color: Color) -> Color {
        assert!(color.is_painted(), "cannot paint a cell blank");
        let slot = &mut self.cells[id.index()];
        let prev = *slot;
        *slot = color;
        self.strokes[id.index()] = self.strokes[id.index()].saturating_add(1);
        prev
    }

    /// Paint at a coordinate. See [`Grid::paint`].
    #[inline]
    pub fn paint_at(&mut self, c: Coord, color: Color) -> Color {
        self.paint(c.to_id(self.width), color)
    }

    /// How many times a cell has been painted (0 for untouched cells).
    /// Layered colorings overpaint; flat colorings touch each cell once.
    #[inline]
    pub fn stroke_count(&self, id: CellId) -> u16 {
        self.strokes[id.index()]
    }

    /// Total paint strokes applied to the whole grid.
    pub fn total_strokes(&self) -> u64 {
        self.strokes.iter().map(|&s| u64::from(s)).sum()
    }

    /// Number of cells still blank.
    pub fn blank_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_painted()).count()
    }

    /// Whether every cell has been painted.
    pub fn is_complete(&self) -> bool {
        self.blank_cells() == 0
    }

    /// Iterate over all cell ids in row-major (execution-number) order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = CellId> + 'static {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterate over `(CellId, Color)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, Color)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (CellId(i as u32), c))
    }

    /// The region of cells currently holding `color`.
    pub fn cells_of_color(&self, color: Color) -> Region {
        Region::from_ids(
            self.iter()
                .filter_map(|(id, c)| (c == color).then_some(id)),
        )
    }

    /// Check that this grid's colors match `expected` cell-for-cell,
    /// returning the ids of mismatching cells (empty = match). Used by the
    /// integration tests to verify that every execution strategy — serial,
    /// simulated-parallel, real threads — produces the same flag.
    pub fn mismatches(&self, expected: &Grid) -> Vec<CellId> {
        assert_eq!(
            (self.width, self.height),
            (expected.width, expected.height),
            "grids must have equal dimensions"
        );
        self.iter()
            .zip(expected.iter())
            .filter_map(|((id, a), (_, b))| (a != b).then_some(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_blank() {
        let g = Grid::new(6, 4);
        assert_eq!(g.len(), 24);
        assert_eq!(g.blank_cells(), 24);
        assert!(!g.is_complete());
        assert_eq!(g.total_strokes(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Grid::new(0, 5);
    }

    #[test]
    fn paint_and_get() {
        let mut g = Grid::new(3, 2);
        let prev = g.paint_at(Coord::new(1, 1), Color::Red);
        assert_eq!(prev, Color::Blank);
        assert_eq!(g.get_at(Coord::new(1, 1)), Color::Red);
        assert_eq!(g.blank_cells(), 5);
    }

    #[test]
    fn overpaint_counts_strokes() {
        let mut g = Grid::new(2, 2);
        let id = CellId(3);
        g.paint(id, Color::Blue);
        let prev = g.paint(id, Color::White);
        assert_eq!(prev, Color::Blue);
        assert_eq!(g.get(id), Color::White);
        assert_eq!(g.stroke_count(id), 2);
        assert_eq!(g.total_strokes(), 2);
    }

    #[test]
    #[should_panic(expected = "blank")]
    fn painting_blank_is_rejected() {
        let mut g = Grid::new(2, 2);
        g.paint(CellId(0), Color::Blank);
    }

    #[test]
    fn complete_after_painting_everything() {
        let mut g = Grid::new(4, 4);
        for id in g.ids().collect::<Vec<_>>() {
            g.paint(id, Color::Green);
        }
        assert!(g.is_complete());
        assert_eq!(g.cells_of_color(Color::Green).len(), 16);
    }

    #[test]
    fn parse_roundtrip() {
        let text = "RRBB\nYYGG\n";
        let g = Grid::parse(text).unwrap();
        assert_eq!(g.width(), 4);
        assert_eq!(g.height(), 2);
        assert_eq!(g.get_at(Coord::new(0, 0)), Color::Red);
        assert_eq!(g.get_at(Coord::new(3, 1)), Color::Green);
        assert_eq!(crate::render::to_ascii(&g), "RRBB\nYYGG\n");
    }

    #[test]
    fn parse_rejects_ragged_and_unknown() {
        assert!(Grid::parse("RR\nRRR\n").is_err());
        assert!(Grid::parse("Rz\n").is_err());
        assert!(Grid::parse("   \n").is_err());
    }

    #[test]
    fn mismatches_reports_differences() {
        let a = Grid::parse("RB\nGY\n").unwrap();
        let mut b = a.clone();
        assert!(a.mismatches(&b).is_empty());
        b.paint(CellId(2), Color::Red);
        assert_eq!(a.mismatches(&b), vec![CellId(2)]);
    }
}
