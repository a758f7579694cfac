#include "data/flight.h"

#include <cmath>

#include "common/rng.h"

namespace raven::data {

std::vector<std::string> FlightFeatureColumns() {
  return {"dep_hour", "distance", "day_of_week", "airline", "origin", "dest"};
}

FlightDataset MakeFlightDataset(std::int64_t n, std::uint64_t seed,
                                std::int64_t num_airlines,
                                std::int64_t num_airports) {
  Rng rng(seed);
  std::vector<double> id(static_cast<std::size_t>(n));
  std::vector<double> airline(static_cast<std::size_t>(n));
  std::vector<double> origin(static_cast<std::size_t>(n));
  std::vector<double> dest(static_cast<std::size_t>(n));
  std::vector<double> dep_hour(static_cast<std::size_t>(n));
  std::vector<double> distance(static_cast<std::size_t>(n));
  std::vector<double> day_of_week(static_cast<std::size_t>(n));
  std::vector<double> delayed(static_cast<std::size_t>(n));

  // Per-airline and per-airport delay propensities make the one-hot
  // features genuinely predictive (so L1 keeps a nontrivial subset).
  std::vector<double> airline_bias(static_cast<std::size_t>(num_airlines));
  std::vector<double> airport_bias(static_cast<std::size_t>(num_airports));
  for (auto& b : airline_bias) b = 0.8 * rng.NextGaussian();
  for (auto& b : airport_bias) b = 0.6 * rng.NextGaussian();

  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    id[s] = static_cast<double>(i);
    airline[s] = static_cast<double>(
        rng.NextUint(static_cast<std::uint64_t>(num_airlines)));
    origin[s] = static_cast<double>(
        rng.NextUint(static_cast<std::uint64_t>(num_airports)));
    do {
      dest[s] = static_cast<double>(
          rng.NextUint(static_cast<std::uint64_t>(num_airports)));
    } while (dest[s] == origin[s]);
    dep_hour[s] = std::floor(rng.Uniform(5.0, 23.0));
    distance[s] = 150.0 + 2500.0 * rng.NextDouble();
    day_of_week[s] = std::floor(rng.Uniform(0.0, 7.0));
    const double logit =
        -0.8 + airline_bias[static_cast<std::size_t>(airline[s])] +
        0.5 * airport_bias[static_cast<std::size_t>(origin[s])] +
        0.5 * airport_bias[static_cast<std::size_t>(dest[s])] +
        0.08 * (dep_hour[s] - 12.0) + 0.1 * (day_of_week[s] >= 5 ? 1 : 0);
    const double p = 1.0 / (1.0 + std::exp(-logit));
    delayed[s] = rng.NextBool(p) ? 1.0 : 0.0;
  }

  std::vector<std::string> airline_dict;
  for (std::int64_t a = 0; a < num_airlines; ++a) {
    airline_dict.push_back("AL" + std::to_string(a));
  }
  std::vector<std::string> airport_dict;
  for (std::int64_t a = 0; a < num_airports; ++a) {
    airport_dict.push_back("AP" + std::to_string(a));
  }

  FlightDataset data;
  data.num_airlines = num_airlines;
  data.num_airports = num_airports;
  (void)data.flights.AddNumericColumn("id", std::move(id));
  (void)data.flights.AddNumericColumn("dep_hour", std::move(dep_hour));
  (void)data.flights.AddNumericColumn("distance", std::move(distance));
  (void)data.flights.AddNumericColumn("day_of_week", std::move(day_of_week));
  (void)data.flights.AddCategoricalColumn("airline", std::move(airline),
                                          airline_dict);
  (void)data.flights.AddCategoricalColumn("origin", std::move(origin),
                                          airport_dict);
  (void)data.flights.AddCategoricalColumn("dest", std::move(dest),
                                          airport_dict);
  (void)data.flights.AddNumericColumn("delayed", std::move(delayed));
  return data;
}

Result<ml::ModelPipeline> TrainFlightLogreg(const FlightDataset& data,
                                            double l1, std::int64_t epochs) {
  ml::ModelPipeline pipeline;
  pipeline.input_columns = FlightFeatureColumns();
  ml::FeatureBranch scaler;
  scaler.name = "scaler";
  scaler.kind = ml::TransformKind::kScaler;
  scaler.input_columns = {0, 1, 2};
  ml::FeatureBranch onehot;
  onehot.name = "onehot";
  onehot.kind = ml::TransformKind::kOneHot;
  onehot.input_columns = {3, 4, 5};
  pipeline.featurizer.AddBranch(std::move(scaler));
  pipeline.featurizer.AddBranch(std::move(onehot));

  RAVEN_ASSIGN_OR_RETURN(Tensor x,
                         data.flights.ToTensor(pipeline.input_columns));
  RAVEN_RETURN_IF_ERROR(pipeline.featurizer.Fit(x));
  // Pin one-hot cardinalities to the full dictionaries (a sample might not
  // contain every code).
  auto& branches = pipeline.featurizer.mutable_branches();
  branches[1].onehot.SetCardinalities(
      {data.num_airlines, data.num_airports, data.num_airports});
  RAVEN_ASSIGN_OR_RETURN(Tensor features, pipeline.featurizer.Transform(x));

  const auto label = data.flights.GetColumn("delayed");
  std::vector<float> y;
  y.reserve((*label)->data.size());
  for (double v : (*label)->data) y.push_back(static_cast<float>(v));

  ml::LinearModel model(ml::LinearKind::kLogistic);
  ml::LinearTrainOptions options;
  options.epochs = epochs;
  options.learning_rate = 0.3;
  options.l1 = l1;
  RAVEN_RETURN_IF_ERROR(model.Fit(features, y, options));
  pipeline.predictor = std::move(model);
  return pipeline;
}

std::string FlightLogregScript() {
  return "from sklearn.pipeline import Pipeline, FeatureUnion\n"
         "from sklearn.preprocessing import StandardScaler, OneHotEncoder\n"
         "from sklearn.linear_model import LogisticRegression\n"
         "\n"
         "model_pipeline = Pipeline([\n"
         "    ('union', FeatureUnion([\n"
         "        ('scaler', StandardScaler(columns=['dep_hour', 'distance',\n"
         "            'day_of_week'])),\n"
         "        ('onehot', OneHotEncoder(columns=['airline', 'origin',\n"
         "            'dest']))\n"
         "    ])),\n"
         "    ('clf', LogisticRegression(penalty=1))\n"
         "])\n";
}

}  // namespace raven::data
