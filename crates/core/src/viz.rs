//! SVG map rendering: the visual counterpart of the paper's path figures.
//!
//! Figs. 1, 3, 7 and 10 of the paper are world-map illustrations of
//! paths, ground stations, and attenuation fields. This module renders
//! the same artifacts as self-contained SVG files: an equirectangular
//! world map with the land-mask coastlines, plus layers for paths
//! (color-coded by hop type), point markers, and raster heat-maps. No
//! external renderer is needed — the output opens in any browser.

use leo_geo::GeoPoint;
use std::fmt::Write as _;

/// An SVG world-map builder (equirectangular projection).
#[derive(Debug)]
pub struct MapCanvas {
    width: f64,
    height: f64,
    layers: String,
}

impl MapCanvas {
    /// A canvas of `width` pixels (height follows the 2:1 equirectangular
    /// aspect), with oceans, land polygons and a graticule pre-drawn.
    pub fn new(width: f64) -> Self {
        let height = width / 2.0;
        let mut c = Self {
            width,
            height,
            layers: String::new(),
        };
        // Ocean background.
        let _ = write!(
            c.layers,
            r##"<rect x="0" y="0" width="{width}" height="{height}" fill="#dcecf5"/>"##
        );
        c.draw_land();
        c.draw_graticule();
        c
    }

    /// Project (lat, lon) degrees to canvas x/y.
    fn project(&self, p: GeoPoint) -> (f64, f64) {
        let x = (p.lon_deg() + 180.0) / 360.0 * self.width;
        let y = (90.0 - p.lat_deg()) / 180.0 * self.height;
        (x, y)
    }

    fn draw_land(&mut self) {
        // Sample the land mask on a grid and draw filled cells — robust
        // against polygon orientation and cheap at figure resolution.
        let step = 1.0;
        let cell_w = self.width / 360.0 * step;
        let cell_h = self.height / 180.0 * step;
        let mut lat = -90.0 + step / 2.0;
        let mut rects = String::new();
        while lat < 90.0 {
            let mut lon = -180.0 + step / 2.0;
            while lon < 180.0 {
                if leo_data::is_land(GeoPoint::from_degrees(lat, lon)) {
                    let (x, y) =
                        self.project(GeoPoint::from_degrees(lat + step / 2.0, lon - step / 2.0));
                    let _ = write!(
                        rects,
                        r##"<rect x="{:.1}" y="{:.1}" width="{:.2}" height="{:.2}"/>"##,
                        x, y, cell_w, cell_h
                    );
                }
                lon += step;
            }
            lat += step;
        }
        let _ = write!(
            self.layers,
            r##"<g fill="#c8ddb8" stroke="none">{rects}</g>"##
        );
    }

    fn draw_graticule(&mut self) {
        let mut lines = String::new();
        for lon in (-180..=180).step_by(30) {
            let x = (lon as f64 + 180.0) / 360.0 * self.width;
            let _ = write!(
                lines,
                r##"<line x1="{x:.1}" y1="0" x2="{x:.1}" y2="{:.1}"/>"##,
                self.height
            );
        }
        for lat in (-90..=90).step_by(30) {
            let y = (90.0 - lat as f64) / 180.0 * self.height;
            let _ = write!(
                lines,
                r##"<line x1="0" y1="{y:.1}" x2="{:.1}" y2="{y:.1}"/>"##,
                self.width
            );
        }
        let _ = write!(
            self.layers,
            r##"<g stroke="#b0c4d4" stroke-width="0.4" opacity="0.6">{lines}</g>"##
        );
    }

    /// Draw a polyline through ground points (date-line crossings split
    /// the polyline rather than smearing across the map).
    pub fn polyline(&mut self, points: &[GeoPoint], color: &str, width_px: f64, dashed: bool) {
        if points.len() < 2 {
            return;
        }
        let dash = if dashed {
            r#" stroke-dasharray="6,4""#
        } else {
            ""
        };
        let mut segments: Vec<Vec<(f64, f64)>> = vec![Vec::new()];
        let mut prev_lon = points[0].lon_deg();
        for p in points {
            if (p.lon_deg() - prev_lon).abs() > 180.0 {
                segments.push(Vec::new());
            }
            prev_lon = p.lon_deg();
            #[expect(
                clippy::unwrap_used,
                reason = "segments is initialized with one element and only ever grows"
            )]
            segments.last_mut().unwrap().push(self.project(*p));
        }
        for seg in segments.iter().filter(|s| s.len() >= 2) {
            let pts: Vec<String> = seg.iter().map(|(x, y)| format!("{x:.1},{y:.1}")).collect();
            let _ = write!(
                self.layers,
                r##"<polyline points="{}" fill="none" stroke="{color}" stroke-width="{width_px}"{dash}/>"##,
                pts.join(" ")
            );
        }
    }

    /// Draw a circular marker with an optional label.
    pub fn marker(&mut self, p: GeoPoint, radius_px: f64, color: &str, label: Option<&str>) {
        let (x, y) = self.project(p);
        let _ = write!(
            self.layers,
            r##"<circle cx="{x:.1}" cy="{y:.1}" r="{radius_px}" fill="{color}" stroke="#333" stroke-width="0.5"/>"##
        );
        if let Some(text) = label {
            let _ = write!(
                self.layers,
                r##"<text x="{:.1}" y="{:.1}" font-size="11" font-family="sans-serif" fill="#222">{}</text>"##,
                x + radius_px + 2.0,
                y + 4.0,
                xml_escape(text)
            );
        }
    }

    /// Overlay semi-transparent heat cells: `(lat, lon, value)` triples
    /// on a `cell_deg` grid, colored from transparent (min) to deep red
    /// (max).
    pub fn heatmap(&mut self, cells: &[(f64, f64, f64)], cell_deg: f64) {
        if cells.is_empty() {
            return;
        }
        let max = cells.iter().map(|c| c.2).fold(f64::MIN, f64::max);
        let min = cells.iter().map(|c| c.2).fold(f64::MAX, f64::min);
        let span = (max - min).max(1e-12);
        let cw = self.width / 360.0 * cell_deg;
        let ch = self.height / 180.0 * cell_deg;
        let mut rects = String::new();
        for &(lat, lon, v) in cells {
            let t = (v - min) / span;
            let (x, y) = self.project(GeoPoint::from_degrees(
                lat + cell_deg / 2.0,
                lon - cell_deg / 2.0,
            ));
            let _ = write!(
                rects,
                r##"<rect x="{x:.1}" y="{y:.1}" width="{cw:.2}" height="{ch:.2}" fill="rgb(220,{:.0},40)" opacity="{:.2}"/>"##,
                180.0 * (1.0 - t),
                0.08 + 0.55 * t,
            );
        }
        let _ = write!(self.layers, "<g>{rects}</g>");
    }

    /// Add a title caption.
    pub fn title(&mut self, text: &str) {
        let _ = write!(
            self.layers,
            r##"<text x="10" y="20" font-size="16" font-family="sans-serif" font-weight="bold" fill="#111">{}</text>"##,
            xml_escape(text)
        );
    }

    /// Finish into a standalone SVG document.
    pub fn into_svg(self) -> String {
        format!(
            r##"<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">{layers}</svg>
"##,
            w = self.width,
            h = self.height,
            layers = self.layers
        )
    }

    /// Write the SVG to a file, creating parent directories.
    pub fn save(self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.into_svg())
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render a snapshot path (by node sequence) onto a canvas: ground hops
/// as markers, the route as a polyline through ground points and
/// sub-satellite points.
pub fn draw_snapshot_path(
    canvas: &mut MapCanvas,
    snap: &crate::snapshot::NetworkSnapshot,
    constellation_positions: &leo_orbit::ConstellationSnapshot,
    nodes: &[leo_graph::NodeId],
    color: &str,
    dashed: bool,
) {
    let mut route = Vec::with_capacity(nodes.len());
    for &n in nodes {
        match snap.nodes[n as usize] {
            crate::snapshot::NodeKind::Satellite(id) => {
                route.push(constellation_positions.subpoint(id as usize));
            }
            _ => {
                if let Some(g) = snap.ground_position(n) {
                    route.push(g);
                    canvas.marker(g, 2.5, color, None);
                }
            }
        }
    }
    canvas.polyline(&route, color, 1.8, dashed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svg_is_well_formed() {
        let mut c = MapCanvas::new(400.0);
        c.title("test map");
        c.marker(
            GeoPoint::from_degrees(47.4, 8.5),
            3.0,
            "#cc0000",
            Some("Zurich"),
        );
        c.polyline(
            &[
                GeoPoint::from_degrees(40.7, -74.0),
                GeoPoint::from_degrees(51.5, -0.1),
            ],
            "#0044cc",
            2.0,
            false,
        );
        let svg = c.into_svg();
        assert!(svg.starts_with("<?xml"));
        assert!(svg.contains("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("Zurich"));
        // Every opened group closes.
        assert_eq!(svg.matches("<g").count(), svg.matches("</g>").count());
    }

    #[test]
    fn projection_corners() {
        let c = MapCanvas::new(360.0);
        // Note: GeoPoint canonicalizes longitude into (−180, 180], so
        // exactly −180° becomes +180° (right edge).
        let (x, y) = c.project(GeoPoint::from_degrees(90.0, -179.999));
        assert!(x < 0.01 && y.abs() < 1e-9, "x={x} y={y}");
        let (x, y) = c.project(GeoPoint::from_degrees(-90.0, 180.0));
        assert!((x - 360.0).abs() < 1e-9 && (y - 180.0).abs() < 1e-9);
        let (x, y) = c.project(GeoPoint::from_degrees(0.0, 0.0));
        assert!((x - 180.0).abs() < 1e-9 && (y - 90.0).abs() < 1e-9);
    }

    #[test]
    fn dateline_crossing_splits_polyline() {
        let mut c = MapCanvas::new(400.0);
        let before = c.layers.matches("<polyline").count();
        c.polyline(
            &[
                GeoPoint::from_degrees(35.0, 170.0),
                GeoPoint::from_degrees(36.0, -170.0),
                GeoPoint::from_degrees(37.0, -160.0),
            ],
            "#000",
            1.0,
            false,
        );
        let after = c.layers.matches("<polyline").count();
        // Single polyline across the seam would smear; the crossing
        // produces one segment on the East side being dropped (len 1)
        // and one on the West (len 2) → exactly one polyline added.
        assert_eq!(after - before, 1);
    }

    #[test]
    fn heatmap_scales_colors() {
        let mut c = MapCanvas::new(400.0);
        c.heatmap(&[(0.0, 0.0, 1.0), (10.0, 10.0, 5.0)], 5.0);
        let svg = c.into_svg();
        assert!(svg.contains("rgb(220,"));
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join("leo_viz_test");
        let path = dir.join("map.svg");
        MapCanvas::new(200.0).save(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escape_handles_special_chars() {
        assert_eq!(xml_escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }
}
