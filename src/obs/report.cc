#include "obs/report.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/csv.hh"
#include "obs/manifest.hh"

namespace polca::obs {

namespace {

namespace fs = std::filesystem;

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/** Extract "key": "value" from the manifest (our own stable JSON). */
std::string
jsonStringField(const std::string &text, const std::string &key)
{
    std::string pat = "\"" + key + "\": \"";
    std::string::size_type p = text.find(pat);
    if (p == std::string::npos)
        return "";
    p += pat.size();
    std::string out;
    while (p < text.size() && text[p] != '"') {
        if (text[p] == '\\' && p + 1 < text.size()) {
            out += text[p + 1];
            p += 2;
            continue;
        }
        out += text[p];
        ++p;
    }
    return out;
}

/** Extract "key": 123.4 (raw token) from the manifest. */
std::string
jsonRawField(const std::string &text, const std::string &key)
{
    std::string pat = "\"" + key + "\": ";
    std::string::size_type p = text.find(pat);
    if (p == std::string::npos)
        return "";
    p += pat.size();
    std::string out;
    while (p < text.size() && text[p] != ',' && text[p] != '\n')
        out += text[p++];
    return out;
}

std::vector<std::string>
jsonArtifacts(const std::string &text)
{
    std::vector<std::string> out;
    std::string::size_type p = text.find("\"artifacts\": [");
    if (p == std::string::npos)
        return out;
    p += std::string("\"artifacts\": [").size();
    while (p < text.size() && text[p] != ']') {
        if (text[p] == '"') {
            std::string item;
            ++p;
            while (p < text.size() && text[p] != '"')
                item += text[p++];
            out.push_back(item);
        }
        ++p;
    }
    return out;
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** Compact deterministic re-format of a CSV numeric cell. */
std::string
compactNumber(const std::string &raw)
{
    if (raw.empty())
        return raw;
    char *end = nullptr;
    double v = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0')
        return raw;  // not a plain number: keep verbatim
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
fmtCoord(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

/**
 * Dual-format document builder: every section lands in both the
 * markdown and the HTML body; SVG fragments are HTML-only (the
 * markdown notes where to look).
 */
class Doc
{
  public:
    void
    heading(int level, const std::string &text)
    {
        md_ += "\n";
        md_.append(static_cast<std::size_t>(level), '#');
        md_ += " " + text + "\n\n";
        std::string tag = "h";
        tag += std::to_string(level);
        html_ += "<" + tag + ">" + htmlEscape(text) + "</" + tag +
            ">\n";
    }

    void
    para(const std::string &text)
    {
        md_ += text + "\n\n";
        html_ += "<p>" + htmlEscape(text) + "</p>\n";
    }

    void
    table(const std::vector<std::string> &header,
          const std::vector<std::vector<std::string>> &rows)
    {
        for (const std::string &h : header)
            md_ += "| " + h + " ";
        md_ += "|\n";
        for (std::size_t i = 0; i < header.size(); ++i)
            md_ += "| --- ";
        md_ += "|\n";
        for (const auto &row : rows) {
            for (const std::string &cell : row)
                md_ += "| " + cell + " ";
            md_ += "|\n";
        }
        md_ += "\n";

        html_ += "<table>\n<tr>";
        for (const std::string &h : header)
            html_ += "<th>" + htmlEscape(h) + "</th>";
        html_ += "</tr>\n";
        for (const auto &row : rows) {
            html_ += "<tr>";
            for (const std::string &cell : row)
                html_ += "<td>" + htmlEscape(cell) + "</td>";
            html_ += "</tr>\n";
        }
        html_ += "</table>\n";
    }

    /** HTML-only fragment (SVG); @p mdNote lands in the markdown. */
    void
    htmlOnly(const std::string &fragment, const std::string &mdNote)
    {
        html_ += fragment;
        if (!mdNote.empty())
            md_ += mdNote + "\n\n";
    }

    const std::string &markdown() const { return md_; }
    const std::string &htmlBody() const { return html_; }

  private:
    std::string md_;
    std::string html_;
};

/** Minimal embedded stylesheet; no external fetches. */
const char *kCss =
    "body{font-family:sans-serif;margin:2em;max-width:60em}"
    "table{border-collapse:collapse;margin:0.5em 0}"
    "th,td{border:1px solid #999;padding:0.2em 0.6em;"
    "text-align:right}"
    "th:first-child,td:first-child{text-align:left}"
    "h1,h2{border-bottom:1px solid #ccc}"
    "footer{margin-top:2em;color:#666;font-size:smaller}";

/** CSV text -> rows; empty on missing/empty file. */
std::vector<std::vector<std::string>>
loadCsv(const fs::path &path)
{
    std::string text;
    if (!readFile(path, text) || text.empty())
        return {};
    return analysis::parseCsv(text);
}

/** result.csv key set shown under "Recovery SLOs" instead of the
 *  run summary. */
bool
isRecoveryKey(const std::string &key)
{
    static const char *keys[] = {
        "failsafe_entries",    "failsafe_s",
        "time_to_failsafe_max_s", "mttr_total_s",
        "mttr_max_s",          "controller_crashes",
        "controller_recoveries", "controller_down_s",
        "caps_stale_s",        "stale_s",
        "brake_s",             "mode_transitions",
    };
    for (const char *k : keys) {
        if (key == k)
            return true;
    }
    return false;
}

void
keyValueSection(Doc &doc, const std::string &title,
                const std::vector<std::vector<std::string>> &rows,
                bool recoveryKeys)
{
    std::vector<std::vector<std::string>> selected;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].size() < 2)
            continue;
        if (isRecoveryKey(rows[i][0]) == recoveryKeys) {
            selected.push_back(
                {rows[i][0], compactNumber(rows[i][1])});
        }
    }
    if (selected.empty())
        return;
    doc.heading(2, title);
    doc.table({"metric", "value"}, selected);
}

/** Percentile table from a metrics.csv dump: every log histogram's
 *  count/mean/min/p50/p90/p95/p99/p99.9/max scalars. */
void
percentileSection(Doc &doc, const std::string &title,
                  const std::vector<std::vector<std::string>> &rows)
{
    static const std::vector<std::string> fields = {
        "count", "mean", "min", "p50", "p90",
        "p95",   "p99",  "p99.9", "max"};
    std::map<std::string, std::map<std::string, std::string>> hists;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].size() < 3 || rows[i][1] != "loghist")
            continue;
        const std::string &name = rows[i][0];
        std::string::size_type sep = name.find("::");
        if (sep == std::string::npos)
            continue;
        std::string field = name.substr(sep + 2);
        if (std::find(fields.begin(), fields.end(), field) ==
            fields.end())
            continue;
        hists[name.substr(0, sep)][field] =
            compactNumber(rows[i][2]);
    }
    if (hists.empty())
        return;

    doc.heading(2, title);
    std::vector<std::string> header = {"metric"};
    header.insert(header.end(), fields.begin(), fields.end());
    std::vector<std::vector<std::string>> out;
    for (const auto &[name, values] : hists) {
        std::vector<std::string> row = {name};
        for (const std::string &f : fields) {
            auto it = values.find(f);
            row.push_back(it == values.end() ? "-" : it->second);
        }
        out.push_back(std::move(row));
    }
    doc.table(header, out);
}

/** Generic CSV table section (summary.csv, chaos_summary.csv). */
void
csvSection(Doc &doc, const std::string &title,
           const std::vector<std::vector<std::string>> &rows)
{
    if (rows.size() < 2)
        return;
    doc.heading(2, title);
    std::vector<std::vector<std::string>> body;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        std::vector<std::string> row;
        row.reserve(rows[i].size());
        for (std::size_t c = 0; c < rows[i].size(); ++c)
            row.push_back(c == 0 ? rows[i][c]
                                 : compactNumber(rows[i][c]));
        body.push_back(std::move(row));
    }
    doc.table(rows[0], body);
}

void
violationsSection(Doc &doc,
                  const std::vector<std::vector<std::string>> &rows,
                  bool artifactPresent)
{
    if (!artifactPresent)
        return;
    doc.heading(2, "Safety violations");
    if (rows.size() < 2) {
        doc.para("No safety-invariant violations recorded.");
        return;
    }
    std::vector<std::vector<std::string>> body(rows.begin() + 1,
                                               rows.end());
    doc.table(rows[0], body);
}

/**
 * Inline-SVG timeline: row power samples (left axis) and per-interval
 * cap commands (right axis, scaled to their own max) over sim time.
 */
void
timelineSection(Doc &doc,
                const std::vector<std::vector<std::string>> &rows)
{
    if (rows.size() < 3)  // header + at least two samples
        return;
    const std::vector<std::string> &header = rows[0];
    auto column = [&](const std::string &name) {
        for (std::size_t c = 0; c < header.size(); ++c) {
            if (header[c] == name)
                return static_cast<int>(c);
        }
        return -1;
    };
    int timeCol = column("time_s");
    int powerCol = column("telemetry.latest_row_watts");
    int capCol = column("manager.cap_commands");
    if (timeCol < 0 || powerCol < 0)
        return;

    auto cell = [&](std::size_t r, int c) {
        return std::strtod(rows[r][static_cast<std::size_t>(c)].c_str(),
                           nullptr);
    };
    double tMin = cell(1, timeCol);
    double tMax = cell(rows.size() - 1, timeCol);
    double pMax = 0.0, capMax = 0.0;
    for (std::size_t r = 1; r < rows.size(); ++r) {
        pMax = std::max(pMax, cell(r, powerCol));
        if (capCol >= 0)
            capMax = std::max(capMax, cell(r, capCol));
    }
    if (tMax <= tMin || pMax <= 0.0)
        return;

    const double w = 760.0, h = 240.0, x0 = 60.0, y0 = 20.0;
    auto x = [&](double t) {
        return x0 + (t - tMin) / (tMax - tMin) * w;
    };
    auto yPower = [&](double p) { return y0 + h - p / pMax * h; };

    std::string svg;
    svg += "<svg viewBox=\"0 0 860 300\" role=\"img\" "
           "aria-label=\"power and cap timeline\">\n";
    svg += "<rect x=\"60\" y=\"20\" width=\"760\" height=\"240\" "
           "fill=\"none\" stroke=\"#999\"/>\n";
    svg += "<text x=\"8\" y=\"30\" font-size=\"11\">" +
        compactNumber(fmtCoord(pMax)) + " W</text>\n";
    svg += "<text x=\"8\" y=\"260\" font-size=\"11\">0 W</text>\n";
    svg += "<text x=\"60\" y=\"285\" font-size=\"11\">" +
        compactNumber(fmtCoord(tMin)) + " s</text>\n";
    svg += "<text x=\"760\" y=\"285\" font-size=\"11\">" +
        compactNumber(fmtCoord(tMax)) + " s</text>\n";

    svg += "<polyline fill=\"none\" stroke=\"#36c\" "
           "stroke-width=\"1.5\" points=\"";
    for (std::size_t r = 1; r < rows.size(); ++r) {
        svg += fmtCoord(x(cell(r, timeCol))) + "," +
            fmtCoord(yPower(cell(r, powerCol))) + " ";
    }
    svg += "\"/>\n";

    if (capCol >= 0 && capMax > 0.0) {
        auto yCap = [&](double v) {
            return y0 + h - v / capMax * h;
        };
        svg += "<polyline fill=\"none\" stroke=\"#e80\" "
               "stroke-width=\"1\" stroke-dasharray=\"3,2\" "
               "points=\"";
        for (std::size_t r = 1; r < rows.size(); ++r) {
            svg += fmtCoord(x(cell(r, timeCol))) + "," +
                fmtCoord(yCap(cell(r, capCol))) + " ";
        }
        svg += "\"/>\n";
        svg += "<text x=\"828\" y=\"30\" font-size=\"11\" "
               "fill=\"#e80\">" +
            compactNumber(fmtCoord(capMax)) + "</text>\n";
    }
    svg += "<text x=\"70\" y=\"36\" font-size=\"11\" "
           "fill=\"#36c\">row power (W)</text>\n";
    if (capCol >= 0 && capMax > 0.0) {
        svg += "<text x=\"70\" y=\"50\" font-size=\"11\" "
               "fill=\"#e80\">cap commands / interval</text>\n";
    }
    svg += "</svg>\n";

    doc.heading(2, "Power / cap timeline");
    doc.htmlOnly(svg,
                 "*(timeline rendered in report.html; data in "
                 "stats_interval.csv)*");
}

} // namespace

ReportResult
writeRunReport(const std::string &runDir)
{
    ReportResult out;
    fs::path dir(runDir);

    std::string manifestText;
    if (!readFile(dir / "manifest.json", manifestText)) {
        out.error = "no manifest.json in '" + runDir +
            "' (is this a polcactl run directory?)";
        return out;
    }

    std::string command = jsonStringField(manifestText, "command");
    std::string scenario = jsonStringField(manifestText, "scenario");
    std::string digest =
        jsonStringField(manifestText, "config_digest");
    std::string tool = jsonStringField(manifestText, "tool");
    std::string seed = jsonRawField(manifestText, "seed");
    std::string durationS =
        jsonRawField(manifestText, "duration_s");
    std::string intervalS =
        jsonRawField(manifestText, "metrics_interval_s");
    std::vector<std::string> artifacts = jsonArtifacts(manifestText);

    Doc doc;
    doc.heading(1, "polca run report");
    std::vector<std::vector<std::string>> info;
    info.push_back({"command", command});
    if (!scenario.empty())
        info.push_back({"scenario", scenario});
    info.push_back({"config digest", digest});
    info.push_back({"seed", seed});
    info.push_back({"simulated duration (s)",
                    compactNumber(durationS)});
    info.push_back({"metrics interval (s)",
                    compactNumber(intervalS)});
    doc.table({"field", "value"}, info);

    keyValueSection(doc, "Run summary",
                    loadCsv(dir / "result.csv"),
                    /*recoveryKeys=*/false);
    timelineSection(doc, loadCsv(dir / "stats_interval.csv"));
    percentileSection(doc, "Percentiles",
                      loadCsv(dir / "metrics.csv"));
    keyValueSection(doc, "Recovery SLOs",
                    loadCsv(dir / "result.csv"),
                    /*recoveryKeys=*/true);
    violationsSection(doc, loadCsv(dir / "violations.csv"),
                      fs::exists(dir / "violations.csv"));
    csvSection(doc, "Topology rollup",
               loadCsv(dir / "domains.csv"));
    csvSection(doc, "Sweep comparison",
               loadCsv(dir / "summary.csv"));
    csvSection(doc, "Chaos campaign",
               loadCsv(dir / "chaos_summary.csv"));

    // Sweep runs: one percentile table per point artifact.
    for (const std::string &artifact : artifacts) {
        const std::string suffix = ".metrics.csv";
        if (artifact.size() <= suffix.size() ||
            artifact.compare(artifact.size() - suffix.size(),
                             suffix.size(), suffix) != 0)
            continue;
        std::string stem =
            artifact.substr(0, artifact.size() - suffix.size());
        percentileSection(doc, "Percentiles: " + stem,
                          loadCsv(dir / artifact));
    }

    doc.heading(2, "Artifacts");
    std::vector<std::vector<std::string>> inventory;
    for (const std::string &artifact : artifacts)
        inventory.push_back({artifact});
    if (!inventory.empty())
        doc.table({"file"}, inventory);

    std::string footer = tool.empty() ? std::string(kToolVersion)
                                      : tool;

    fs::path mdPath = dir / "report.md";
    {
        std::ofstream os(mdPath, std::ios::binary);
        if (!os) {
            out.error = "cannot write " + mdPath.string();
            return out;
        }
        os << "<!-- generated by " << footer
           << "; deterministic for a fixed run directory -->\n";
        os << doc.markdown();
        os << "---\n" << footer << " · config " << digest << "\n";
    }
    out.written.push_back(mdPath.string());

    fs::path htmlPath = dir / "report.html";
    {
        std::ofstream os(htmlPath, std::ios::binary);
        if (!os) {
            out.error = "cannot write " + htmlPath.string();
            return out;
        }
        os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
           << "<meta charset=\"utf-8\">\n"
           << "<title>polca run report</title>\n"
           << "<style>" << kCss << "</style>\n</head>\n<body>\n"
           << doc.htmlBody() << "<footer>" << htmlEscape(footer)
           << " · config " << htmlEscape(digest)
           << "</footer>\n</body>\n</html>\n";
    }
    out.written.push_back(htmlPath.string());
    out.ok = true;
    return out;
}

} // namespace polca::obs
