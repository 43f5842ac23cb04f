#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace es::util {

void AsciiTable::set_columns(std::vector<std::string> names) {
  ES_EXPECTS(rows_.empty() && pending_.empty());
  columns_ = std::move(names);
}

AsciiTable& AsciiTable::cell(std::string_view text) {
  pending_.emplace_back(text);
  return *this;
}

AsciiTable& AsciiTable::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  pending_.emplace_back(buf);
  return *this;
}

AsciiTable& AsciiTable::cell(long long value) {
  pending_.push_back(std::to_string(value));
  return *this;
}

void AsciiTable::end_row() {
  if (!columns_.empty()) ES_EXPECTS(pending_.size() == columns_.size());
  rows_.push_back(std::move(pending_));
  pending_.clear();
}

void AsciiTable::render(std::ostream& out) const {
  std::vector<std::size_t> width(columns_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    if (row.size() > width.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  };
  widen(columns_);
  for (const auto& row : rows_) widen(row);

  out << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << "  ";
      const auto pad = width[i] - row[i].size();
      if (i == 0) {  // left-align label column
        out << row[i] << std::string(pad, ' ');
      } else {
        out << std::string(pad, ' ') << row[i];
      }
    }
    out << '\n';
  };
  if (!columns_.empty()) {
    emit(columns_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < width.size(); ++i)
      total += width[i] + (i ? 2 : 0);
    out << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds < 0) {
    std::string negated = "-";
    negated += format_duration(-seconds);
    return negated;
  }
  if (seconds < 60) {
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  } else if (seconds < 3600) {
    std::snprintf(buf, sizeof buf, "%.0fm%02.0fs", std::floor(seconds / 60),
                  std::fmod(seconds, 60));
  } else {
    std::snprintf(buf, sizeof buf, "%.0fh%02.0fm", std::floor(seconds / 3600),
                  std::fmod(seconds, 3600) / 60);
  }
  return buf;
}

}  // namespace es::util
