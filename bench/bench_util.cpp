// Copyright (c) 2026 The tsq Authors.

#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"

namespace tsq {
namespace bench {

ScratchDir::ScratchDir(const std::string& tag) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      ("tsq_bench_" + tag + "_XXXXXX"))
                         .string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  TSQ_CHECK_MSG(mkdtemp(buf.data()) != nullptr, "mkdtemp failed for %s",
                tmpl.c_str());
  path_ = buf.data();
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::unique_ptr<Database> BuildDatabase(const std::string& directory,
                                        const std::string& name,
                                        const std::vector<TimeSeries>& series,
                                        const DatabaseOptions& base_options) {
  DatabaseOptions options = base_options;
  options.directory = directory;
  options.name = name;
  auto db = Database::Create(options);
  TSQ_CHECK_MSG(db.ok(), "Database::Create: %s",
                db.status().ToString().c_str());
  for (const TimeSeries& s : series) {
    auto id = (*db)->Insert(s.name(), s.values());
    TSQ_CHECK_MSG(id.ok(), "Insert: %s", id.status().ToString().c_str());
  }
  Status built = (*db)->BuildIndex();
  TSQ_CHECK_MSG(built.ok(), "BuildIndex: %s", built.ToString().c_str());
  return std::move(*db);
}

engine::BatchResult RunQuery(Database* db, const engine::BatchQuery& query) {
  Result<engine::BatchResult> result =
      engine::SingleResult(db->RunBatch({query}));
  TSQ_CHECK_MSG(result.ok(), "query: %s",
                result.status().ToString().c_str());
  return std::move(result).value();
}

double MeanMillis(const std::function<void()>& fn, int reps) {
  TSQ_CHECK(reps > 0);
  Stopwatch watch;
  for (int i = 0; i < reps; ++i) fn();
  return watch.ElapsedMillis() / reps;
}

std::string CellTiming::Spread(int prec) const {
  return Table::Num(min_ms, prec) + "-" + Table::Num(max_ms, prec);
}

void CellTiming::AddTo(Json* row) const {
  (*row)["wall_ms"] = Json::Num(median_ms);
  (*row)["wall_ms_min"] = Json::Num(min_ms);
  (*row)["wall_ms_max"] = Json::Num(max_ms);
  Json runs = Json::Array();
  for (const double ms : runs_ms) runs.Append(Json::Num(ms));
  (*row)["runs_ms"] = std::move(runs);
}

CellTiming RepeatCell(const std::function<double()>& run) {
  run();  // warm-up
  std::vector<double> runs_ms;
  for (int i = 0; i < kCellReps; ++i) runs_ms.push_back(run());
  return Summarize(std::move(runs_ms));
}

CellTiming Summarize(std::vector<double> runs_ms) {
  TSQ_CHECK(!runs_ms.empty());
  CellTiming timing;
  timing.runs_ms = std::move(runs_ms);
  timing.median_ms = Median(timing.runs_ms);
  const auto [min, max] =
      std::minmax_element(timing.runs_ms.begin(), timing.runs_ms.end());
  timing.min_ms = *min;
  timing.max_ms = *max;
  return timing;
}

double Median(std::vector<double> values) {
  TSQ_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

size_t SmokeDivisor() {
  static const size_t divisor = [] {
    const char* env = std::getenv("TSQ_BENCH_SMOKE");
    if (env == nullptr) return size_t{1};
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed > 1 ? static_cast<size_t>(parsed) : size_t{1};
  }();
  return divisor;
}

size_t Scaled(size_t n, size_t floor) {
  return std::max(floor, n / SmokeDivisor());
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> cells) {
  TSQ_CHECK_MSG(cells.size() == header_.size(),
                "row has %zu cells, header has %zu", cells.size(),
                header_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::printf("  ");
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header_);
  size_t total = 2;
  for (size_t w : widths) total += w + 2;
  std::printf("  %s\n", std::string(total - 2, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Table::Num(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

void Banner(const std::string& experiment, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment.c_str(), description.c_str());
  std::printf("================================================================\n\n");
}

Json Json::Str(std::string v) {
  Json j(Kind::kString);
  j.string_ = std::move(v);
  return j;
}

Json Json::Num(double v) {
  Json j(Kind::kNumber);
  j.number_ = v;
  return j;
}

Json Json::Int(uint64_t v) {
  Json j(Kind::kInt);
  j.int_ = v;
  return j;
}

Json Json::Bool(bool v) {
  Json j(Kind::kBool);
  j.bool_ = v;
  return j;
}

Json& Json::operator[](const std::string& key) {
  TSQ_CHECK_MSG(kind_ == Kind::kObject, "operator[] on a non-object Json");
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, Json());
  return members_.back().second;
}

void Json::Append(Json v) {
  TSQ_CHECK_MSG(kind_ == Kind::kArray, "Append on a non-array Json");
  elements_.push_back(std::move(v));
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent) const {
  const std::string pad(2 * indent, ' ');
  const std::string pad_in(2 * (indent + 1), ' ');
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(int_));
      *out += buf;
      break;
    }
    case Kind::kNumber: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.6g", number_);
      *out += buf;
      break;
    }
    case Kind::kString:
      AppendEscaped(out, string_);
      break;
    case Kind::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        *out += pad_in;
        AppendEscaped(out, members_[i].first);
        *out += ": ";
        members_[i].second.DumpTo(out, indent + 1);
        if (i + 1 < members_.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "}";
      break;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (size_t i = 0; i < elements_.size(); ++i) {
        *out += pad_in;
        elements_[i].DumpTo(out, indent + 1);
        if (i + 1 < elements_.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "]";
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out += "\n";
  return out;
}

bool Json::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = Dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace bench
}  // namespace tsq
